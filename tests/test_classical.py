import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cstarmech.classical import (
    BRACKET_RELATIONS,
    HARMONIC,
    ClassicalObservable,
    ClassicalState,
    PhasePoint,
    bracket_table,
    classical_expectation,
    config_observable,
    hamilton_flow,
    is_dispersion_free,
    momentum_observable,
    poisson_bracket,
)
from cstarmech.errors import EvaluationDomainError, InvalidInputError


def random_point(rng, n=3, scale=2.0):
    return PhasePoint(
        scale * rng.standard_normal(n), scale * rng.standard_normal(n)
    )


def coordinate(i):
    return ClassicalObservable(lambda z: z.q[i], label=f"X_{i}")


def momentum_coord(i):
    return ClassicalObservable(lambda z: z.p[i], label=f"P_{i}")


def angular_momentum(i, j):
    return ClassicalObservable(
        lambda z: z.q[i] * z.p[j] - z.q[j] * z.p[i], label=f"L_{i}{j}"
    )


class TestCanonicalBrackets:
    def test_x_with_conjugate_momentum(self, rng):
        for _ in range(20):
            z = random_point(rng)
            assert poisson_bracket(coordinate(0), momentum_coord(0), z) == (
                pytest.approx(1.0, abs=1e-6)
            )

    def test_x_with_other_momentum(self, rng):
        z = random_point(rng)
        assert poisson_bracket(coordinate(0), momentum_coord(1), z) == (
            pytest.approx(0.0, abs=1e-6)
        )

    def test_position_functions_commute(self, rng):
        f = config_observable(lambda q: np.sin(q[0]) * q[1] ** 2)
        g = config_observable(lambda q: np.exp(-q.dot(q)))
        for _ in range(10):
            assert poisson_bracket(f, g, random_point(rng)) == (
                pytest.approx(0.0, abs=1e-6)
            )

    def test_antisymmetry(self, rng):
        a = ClassicalObservable(lambda z: z.q[0] ** 2 * z.p[1])
        b = ClassicalObservable(lambda z: np.cos(z.p[0]) + z.q[2])
        z = random_point(rng)
        assert poisson_bracket(a, b, z) == pytest.approx(
            -poisson_bracket(b, a, z), abs=1e-6
        )

    def test_angular_momentum_algebra(self, rng):
        lx, ly, lz_obs = (
            angular_momentum(1, 2),
            angular_momentum(2, 0),
            angular_momentum(0, 1),
        )
        for _ in range(20):
            z = random_point(rng)
            assert poisson_bracket(lx, ly, z) == pytest.approx(
                lz_obs(z), abs=1e-5 * max(1.0, abs(lz_obs(z)))
            )

    def test_leibniz_rule(self, rng):
        a = ClassicalObservable(lambda z: z.q[0] * z.p[1])
        b = ClassicalObservable(lambda z: z.p[0] + z.q[1] ** 2)
        c = ClassicalObservable(lambda z: np.sin(z.q[2]) + z.p[2])
        bc = ClassicalObservable(lambda z: b(z) * c(z))
        for _ in range(10):
            z = random_point(rng)
            lhs = poisson_bracket(a, bc, z)
            rhs = poisson_bracket(a, b, z) * c(z) + b(z) * poisson_bracket(a, c, z)
            assert lhs == pytest.approx(rhs, abs=5e-6 * max(1.0, abs(rhs)))

    def test_config_with_momentum_field_gives_lie_derivative(self, rng):
        # {Q(f), P(v)} = Q(v . grad f)
        f = lambda q: q[0] ** 2 + np.sin(q[1])
        grad_f = lambda q: np.array([2 * q[0], np.cos(q[1]), 0.0])
        v = lambda q: np.array([q[1], 1.0, q[0] * q[2]])
        qf = config_observable(f)
        pv = momentum_observable(v)
        for _ in range(10):
            z = random_point(rng)
            expected = float(np.dot(v(z.q), grad_f(z.q)))
            assert poisson_bracket(qf, pv, z) == pytest.approx(
                expected, abs=1e-5 * max(1.0, abs(expected))
            )

    def test_momentum_fields_close_under_bracket(self, rng):
        # {P(v1), P(v2)} = -P([v1, v2]) with the Jacobi-Lie bracket of fields
        v1 = lambda q: np.array([q[1], 0.0, 0.0])
        v2 = lambda q: np.array([0.0, q[0], 0.0])
        # [v1, v2] = Dv2 v1 - Dv1 v2 = (-(q1), q1, 0) ... compute directly
        def lie(q):
            d1 = np.array([[0.0, 1, 0], [0, 0, 0], [0, 0, 0]])
            d2 = np.array([[0.0, 0, 0], [1, 0, 0], [0, 0, 0]])
            return d2 @ v1(q) - d1 @ v2(q)

        p1, p2 = momentum_observable(v1), momentum_observable(v2)
        plie = momentum_observable(lie)
        for _ in range(10):
            z = random_point(rng)
            assert poisson_bracket(p1, p2, z) == pytest.approx(
                -plie(z), abs=1e-5 * max(1.0, abs(plie(z)))
            )

    def test_analytic_gradient_path(self, rng):
        a = ClassicalObservable(
            lambda z: z.q[0] * z.p[0],
            gradient=lambda z: (
                np.array([z.p[0], 0.0, 0.0]),
                np.array([z.q[0], 0.0, 0.0]),
            ),
        )
        b = momentum_coord(0)
        z = random_point(rng)
        assert poisson_bracket(a, b, z) == pytest.approx(z.p[0], abs=1e-6)

    def test_rejects_bad_step(self, rng):
        with pytest.raises(InvalidInputError):
            poisson_bracket(coordinate(0), momentum_coord(0), random_point(rng), h=0.0)


class TestClassicalStates:
    def test_pure_state_expectation(self):
        z = PhasePoint([1.0], [2.0])
        omega = ClassicalState.pure(z)
        assert classical_expectation(omega, coordinate(0)) == 1.0
        assert classical_expectation(omega, momentum_coord(0)) == 2.0

    def test_mixture_expectation(self):
        z1, z2 = PhasePoint([0.0], [0.0]), PhasePoint([2.0], [0.0])
        omega = ClassicalState(atoms=((z1, 0.25), (z2, 0.75)))
        assert classical_expectation(omega, coordinate(0)) == pytest.approx(1.5)

    def test_weights_must_sum_to_one(self):
        z = PhasePoint([0.0], [0.0])
        with pytest.raises(InvalidInputError):
            ClassicalState(atoms=((z, 0.5),))

    def test_pure_points_dispersion_free(self, rng):
        omega = ClassicalState.pure(random_point(rng, n=2))
        obs = [coordinate(0), momentum_coord(1),
               ClassicalObservable(lambda z: z.q[0] * z.p[0])]
        assert is_dispersion_free(omega, obs)

    def test_mixtures_have_dispersion(self):
        z1, z2 = PhasePoint([0.0], [0.0]), PhasePoint([1.0], [0.0])
        omega = ClassicalState(atoms=((z1, 0.5), (z2, 0.5)))
        assert not is_dispersion_free(omega, [coordinate(0)])


def harmonic_hamiltonian(omega_freq=1.0):
    return ClassicalObservable(
        lambda z: 0.5 * float(z.p @ z.p) + 0.5 * omega_freq**2 * float(z.q @ z.q),
        label="H",
        gradient=lambda z: (omega_freq**2 * z.q, z.p),
    )


class TestHamiltonFlow:
    def test_free_particle(self):
        h = ClassicalObservable(
            lambda z: 0.5 * float(z.p @ z.p),
            gradient=lambda z: (np.zeros_like(z.q), z.p),
        )
        times, traj = hamilton_flow(h, PhasePoint([0.0], [1.5]), dt=0.01, steps=100)
        assert traj[-1].q[0] == pytest.approx(1.5 * times[-1], abs=1e-10)
        assert traj[-1].p[0] == pytest.approx(1.5, abs=1e-12)

    def test_harmonic_oscillator_orbit(self):
        h = harmonic_hamiltonian()
        times, traj = hamilton_flow(h, PhasePoint([1.0], [0.0]), dt=1e-3, steps=1000)
        t = times[-1]
        assert traj[-1].q[0] == pytest.approx(np.cos(t), abs=1e-6)
        assert traj[-1].p[0] == pytest.approx(-np.sin(t), abs=1e-6)

    def test_energy_drift_small(self):
        h = harmonic_hamiltonian()
        z0 = PhasePoint([1.0], [0.0])
        _, traj = hamilton_flow(h, z0, dt=1e-2, steps=10_000)
        e0 = h(z0)
        drift = max(abs(h(z) - e0) for z in traj)
        assert drift < 1e-4

    def test_time_reversal(self):
        h = harmonic_hamiltonian()
        z0 = PhasePoint([0.3, -1.0], [0.7, 0.2])
        _, fwd = hamilton_flow(h, z0, dt=1e-2, steps=200)
        zr = PhasePoint(fwd[-1].q, -fwd[-1].p)
        _, back = hamilton_flow(h, zr, dt=1e-2, steps=200)
        np.testing.assert_allclose(back[-1].q, z0.q, atol=1e-10)
        np.testing.assert_allclose(back[-1].p, -z0.p, atol=1e-10)

    def test_finite_difference_force_agrees(self):
        # same Hamiltonian without analytic gradient, central differences
        h_fd = ClassicalObservable(
            lambda z: 0.5 * float(z.p @ z.p) + 0.5 * float(z.q @ z.q)
        )
        _, traj = hamilton_flow(h_fd, PhasePoint([1.0], [0.0]), dt=1e-2, steps=100)
        assert traj[-1].q[0] == pytest.approx(np.cos(1.0), abs=1e-4)

    def test_domain_error_reports_step(self):
        h = ClassicalObservable(
            lambda z: float(np.log(z.q[0])) + 0.5 * float(z.p @ z.p)
        )
        with pytest.raises(EvaluationDomainError, match="step"):
            with np.errstate(invalid="ignore", divide="ignore"):
                hamilton_flow(h, PhasePoint([0.5], [-5.0]), dt=0.1, steps=50)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(InvalidInputError):
            hamilton_flow(harmonic_hamiltonian(), PhasePoint([1.0], [0.0]), dt=0.0, steps=1)


def reference_flow(h_obs, z0, dt, steps, fd_step=None):
    """The leapfrog as a plain loop over checked PhasePoints: one for every
    force evaluation and every finite-difference probe."""

    def grads(z):
        if h_obs.gradient is not None:
            gq, gp = (np.asarray(g, dtype=float) for g in h_obs.gradient(z))
        else:
            h = fd_step
            if h is None:
                scale = max(1.0, float(np.max(np.abs(z.q))), float(np.max(np.abs(z.p))))
                h = 1e-5 * scale
            gq, gp = np.empty(z.n), np.empty(z.n)
            for i in range(z.n):
                dq = np.zeros(z.n)
                dq[i] = h
                gq[i] = (h_obs(PhasePoint(z.q + dq, z.p))
                         - h_obs(PhasePoint(z.q - dq, z.p))) / (2 * h)
                gp[i] = (h_obs(PhasePoint(z.q, z.p + dq))
                         - h_obs(PhasePoint(z.q, z.p - dq))) / (2 * h)
        if not (np.all(np.isfinite(gq)) and np.all(np.isfinite(gp))):
            raise EvaluationDomainError("non-finite force during flow")
        return gq, gp

    traj = [z0]
    q, p = z0.q.copy(), z0.p.copy()
    for step in range(steps):
        try:
            gq, _ = grads(PhasePoint(q, p))
            p_half = p - 0.5 * dt * gq
            _, gp = grads(PhasePoint(q, p_half))
            q = q + dt * gp
            gq, _ = grads(PhasePoint(q, p_half))
            p = p_half - 0.5 * dt * gq
        except EvaluationDomainError as exc:
            raise EvaluationDomainError(f"flow failed at step {step}: {exc}") from exc
        traj.append(PhasePoint(q.copy(), p.copy()))
    return dt * np.arange(steps + 1), traj


# V(q) and its gradient for H = |p|^2 / 2 + V(q), with a constant c
POTENTIALS = {
    "harmonic": (lambda q, c: 0.5 * c * float(q @ q), lambda q, c: c * q),
    "quartic": (lambda q, c: 0.25 * c * float(np.sum(q**4)), lambda q, c: c * q**3),
    "pendulum": (lambda q, c: -c * float(np.sum(np.cos(q))), lambda q, c: c * np.sin(q)),
    # these overflow for large c or long runs
    "exponential": (lambda q, c: float(np.sum(np.exp(c * q))) / c, lambda q, c: np.exp(c * q)),
    "stiff": (lambda q, c: 0.5 * c * float(q @ q), lambda q, c: c * q),
}


def counted_hamiltonian(kind, c, analytic, calls):
    """H of the given kind; every evaluation and gradient call is logged."""
    v, dv = POTENTIALS[kind]

    def value(z):
        calls.append("H")
        return 0.5 * float(z.p @ z.p) + v(z.q, c)

    def gradient(z):
        calls.append("dH")
        return dv(z.q, c), z.p

    return ClassicalObservable(value, "H", gradient if analytic else None)


def outcome(flow, kind, c, analytic, z0, dt, steps, fd_step):
    """Every bit of a flow's trajectory, or the error it raised, with the
    calls it made to H before either."""
    calls = []
    h = counted_hamiltonian(kind, c, analytic, calls)
    try:
        with np.errstate(all="ignore"):
            times, traj = flow(h, z0, dt, steps, fd_step)
    except (EvaluationDomainError, InvalidInputError) as exc:
        return type(exc), str(exc), calls
    return times.tobytes(), [(z.q.tobytes(), z.p.tobytes()) for z in traj], calls


@st.composite
def flow_inputs(draw, kinds, constants, dts):
    n = draw(st.integers(1, 3))
    coords = st.lists(st.floats(-3.0, 3.0, allow_subnormal=False), min_size=n, max_size=n)
    z0 = PhasePoint(draw(coords), draw(coords))
    fd_step = draw(st.one_of(st.none(), st.floats(1e-7, 1e-3)))
    return (draw(st.sampled_from(kinds)), draw(constants), draw(st.booleans()),
            z0, draw(dts), draw(st.integers(0, 50)), fd_step)


class TestFlowMatchesPhasePointLoop:
    @given(flow_inputs(["harmonic", "quartic", "pendulum"], st.floats(0.1, 4.0),
                       st.floats(1e-3, 0.2)))
    def test_trajectory_bit_for_bit(self, args):
        new = outcome(hamilton_flow, *args)
        assert isinstance(new[0], bytes), new[:2]
        assert new == outcome(reference_flow, *args)

    @given(flow_inputs(["exponential", "stiff"],
                       st.integers(0, 308).map(lambda e: 10.0**e), st.floats(1e-3, 4.0)))
    def test_blow_up_raises_the_same_error_at_the_same_call(self, args):
        assert outcome(hamilton_flow, *args) == outcome(reference_flow, *args)

    @pytest.mark.parametrize("analytic, q0, dt, c", [
        (True, 1.0, 4.0, 1e308),  # a finite force and an infinite kick
        (False, 1.0, 4.0, 1e308),
        (False, 1.79769e308, 0.1, 1.0),  # a finite-difference probe q + h overflows
    ])
    def test_overflow_is_invalid_input(self, analytic, q0, dt, c):
        # the state is refused where a PhasePoint would refuse it
        args = ("stiff", c, analytic, PhasePoint([q0], [0.0]), dt, 5, None)
        for flow in (hamilton_flow, reference_flow):
            kind, message, _ = outcome(flow, *args)
            assert (kind, message) == (InvalidInputError, "phase point must be finite")
        assert outcome(hamilton_flow, *args) == outcome(reference_flow, *args)

    def test_returns_phase_points(self):
        z0 = PhasePoint([1.0, 0.5], [0.0, -0.5])
        times, traj = hamilton_flow(HARMONIC, z0, 0.1, 3)
        assert traj[0] is z0
        assert all(type(z) is PhasePoint and z.n == 2 for z in traj)
        np.testing.assert_array_equal(times, 0.1 * np.arange(4))


class TestBracketTable:
    def test_rows_match_a_plain_loop(self):
        rows = bracket_table(4, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        want = []
        for i in range(4):
            z = PhasePoint(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
            for label, a, b, rhs in BRACKET_RELATIONS:
                lhs_val = poisson_bracket(a, b, z)
                want.append((label, i, lhs_val, rhs(z), abs(lhs_val - rhs(z))))
        assert rows == want
        assert [r[0] for r in rows[:3]] == ["{X,P_X}=1", "{Q,Q}=0", "{L_X,L_Y}=L_Z"]
        assert max(r[-1] for r in rows) <= 1e-6

    def test_rejects_negative_points(self):
        with pytest.raises(InvalidInputError, match="points"):
            bracket_table(-1, np.random.default_rng(7))
        assert bracket_table(0, np.random.default_rng(7)) == []

    def test_right_hand_sides(self):
        z = PhasePoint([0.5, -1.0, 2.0], [1.5, 0.25, -0.75])
        rhs = [rhs(z) for *_, rhs in BRACKET_RELATIONS]
        assert rhs == [1.0, 0.0, 0.5 * 0.25 - (-1.0) * 1.5]
