import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cstarmech import spectral
from cstarmech.algebra import AlgebraElement, generate_algebra
from cstarmech.errors import EvaluationDomainError, InvalidInputError
from cstarmech.sampling import random_density, random_selfadjoint
from cstarmech.spectral import apply_function, spectral_measure, spectrum
from cstarmech.states import DensityState, expectation, from_vector
from cstarmech.weyl import clock_shift

from conftest import SX, SZ


class TestSpectrum:
    def test_pauli_z(self):
        vals = sorted(v.real for v in spectrum(AlgebraElement(SZ)))
        np.testing.assert_allclose(vals, [-1.0, 1.0])

    def test_degenerate_projection_clusters(self):
        vals = spectrum(AlgebraElement(np.diag([1.0, 1.0, 0.0])))
        assert len(vals) == 2
        np.testing.assert_allclose(sorted(v.real for v in vals), [0.0, 1.0])

    def test_single_linkage_chains_close_eigenvalues(self):
        # 0 and 1.8e-8 lie further apart than tol * norm = 1e-8, but both
        # link to 0.9e-8, so the three form one atom
        vals = spectrum(AlgebraElement(np.diag([0.0, 0.9e-8, 1.8e-8, 1.0])))
        np.testing.assert_allclose(vals, [0.9e-8, 1.0], rtol=0, atol=1e-15)

    def test_clock_matrix_roots_of_unity(self):
        u = AlgebraElement(clock_shift(3).U)
        got = sorted(spectrum(u), key=lambda z: np.angle(z))
        expected = sorted(
            np.exp(2j * np.pi * np.arange(3) / 3), key=lambda z: np.angle(z)
        )
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_selfadjoint_classified_once_and_real(self, rng, monkeypatch):
        calls = []
        classify = spectral.classify
        monkeypatch.setattr(spectral, "classify",
                            lambda a, tol: calls.append(tol) or classify(a, tol))
        a = random_selfadjoint(rng, 4)
        assert all(mu.imag == 0.0 for mu in spectrum(a))
        mu = spectral_measure(random_density(rng, 4), a)
        assert all(lam.imag == 0.0 for lam, _ in mu.atoms)
        assert len(calls) == 2  # one per call

    @pytest.mark.parametrize("kind", ["selfadjoint", "unitary"])
    def test_norm_taken_once(self, rng, monkeypatch, kind):
        # classify's Frobenius certificates decide these inputs, so no ord-2
        # norm is taken; the norm that scales the cluster cut is max |eigenvalue|
        a = random_selfadjoint(rng, 5) if kind == "selfadjoint" else AlgebraElement(
            clock_shift(5).U)
        want = np.linalg.norm(a.entries, 2)
        shapes, real_norm = [], np.linalg.norm

        def norm(x, ord=None, axis=None, keepdims=False):
            if ord == 2:
                shapes.append(x.shape)
            return real_norm(x, ord, axis, keepdims)

        monkeypatch.setattr(np.linalg, "norm", norm)
        spectral_measure(random_density(rng, 5), a)
        assert shapes == []
        vals = spectral._normal_eigensystem(a, 1e-8)[0]
        assert np.abs(vals).max() == pytest.approx(want, rel=1e-14)

    def test_rejects_non_normal(self):
        with pytest.raises(InvalidInputError):
            spectrum(AlgebraElement([[0, 1], [0, 0]]))


def gap_labels(values):
    """Cluster labels of real values from the cut at the gaps of their sort,
    as the commutant's restriction took them before spectral._clusters."""
    s = np.sort(values, kind="stable")
    breaks = s[1:][np.diff(s) > max(1e-8 * np.abs(s).max(), 1e-12)]
    return np.searchsorted(breaks, values, side="right")


def linkage_groups(values):
    """Single-linkage clusters of complex values, pair by pair: members and
    clusters in lexicographic (real, imag, index) order."""
    cut = max(1e-8 * np.abs(values).max(), 1e-12)
    order = sorted(range(len(values)), key=lambda i: (values[i].real, values[i].imag, i))
    root = list(range(len(values)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i in order:
        for j in order:
            if np.abs(values[i] - values[j]) <= cut:
                root[find(j)] = find(i)
    groups = {}
    for i in order:
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def next_gap(v, cut, side):
    """The float w above v whose computed gap w - v is the largest at most
    ``cut`` (side 0), or the next float above that one (side 1)."""
    w = v + cut
    while w - v > cut:
        w = np.nextafter(w, -np.inf)
    while np.nextafter(w, np.inf) - v <= cut:
        w = np.nextafter(w, np.inf)
    return np.nextafter(w, np.inf) if side else w


class TestClusters:
    """spectral._clusters is the one eigenvalue cut."""

    @given(top=st.sampled_from([1e-6, 1e-4, 1.0, 3.7, 1e5]), seed=st.integers(0, 2**32 - 1),
           at_zero=st.booleans(),
           gaps=st.lists(st.sampled_from(["tie", "above", "dup", "far"]), min_size=0, max_size=12))
    def test_real_values_cut_at_the_sorted_gaps(self, top, seed, at_zero, gaps):
        # gaps planted at the cut max(1e-8 max|lambda|, 1e-12): the largest
        # float gap at most the cut and the next one above it; from zero, the
        # first of them is the cut itself and the float after it
        rng = np.random.default_rng(seed)
        cut = max(1e-8 * top, 1e-12)
        vals = [0.0 if at_zero else top * rng.uniform(-0.5, 0.5)]
        for gap in gaps:
            v = vals[-1]
            vals.append({"tie": next_gap(v, cut, 0), "above": next_gap(v, cut, 1),
                         "dup": v, "far": v + 10 * cut}[gap])
        vals = rng.permutation(vals + [-top])
        groups = spectral._clusters(vals, 1e-8)
        labels = np.empty(len(vals), dtype=int)
        for k, g in enumerate(groups):
            labels[g] = k
        np.testing.assert_array_equal(labels, gap_labels(vals))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           scale=st.sampled_from([1e-6, 1.0, 1e5]))
    def test_complex_values_match_pairwise_linkage(self, seed, n, scale):
        # members of a few centres, at distances at and about the cut
        rng = np.random.default_rng(seed)
        centres = scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        cut = max(1e-8 * np.abs(centres).max() * 1.01, 1e-12)
        steps = rng.choice([0.0, 0.5, 1 - 2**-52, 1.0, 1 + 2**-52, 3.0], n)
        vals = centres[rng.integers(0, 3, n)] + cut * steps * np.exp(2j * np.pi * rng.random(n))
        groups = spectral._clusters(vals, 1e-8)
        assert [g.tolist() for g in groups] == linkage_groups(vals)


class TestSpectralMeasure:
    def test_eigenstate_dirac(self):
        omega = DensityState(np.diag([1.0, 0.0]))
        mu = spectral_measure(omega, AlgebraElement(SZ))
        atoms = {round(l.real): w for l, w in mu.atoms if w > 1e-12}
        assert atoms == {1: pytest.approx(1.0)}

    def test_maximally_mixed_uniform(self):
        mu = spectral_measure(DensityState.maximally_mixed(2), AlgebraElement(SZ))
        assert {round(l.real): w for l, w in mu.atoms} == {
            1: pytest.approx(0.5),
            -1: pytest.approx(0.5),
        }

    def test_pure_state_not_dirac(self):
        # +x eigenstate measured along z: pure, yet a 50/50 measure
        omega = from_vector(np.array([1, 1]) / np.sqrt(2))
        mu = spectral_measure(omega, AlgebraElement(SZ))
        np.testing.assert_allclose(sorted(mu.weights()), [0.5, 0.5])

    def test_moment_consistency(self, rng):
        for n in (2, 4, 8):
            a = random_selfadjoint(rng, n)
            omega = random_density(rng, n)
            mu = spectral_measure(omega, a)
            power = AlgebraElement.identity(n)
            for k in range(4):
                assert mu.moment(k) == pytest.approx(
                    expectation(omega, power), abs=1e-9 * max(1.0, abs(mu.moment(k)))
                )
                power = power @ a

    def test_weights_sum_to_one(self, rng):
        mu = spectral_measure(random_density(rng, 6), random_selfadjoint(rng, 6))
        assert mu.weights().sum() == pytest.approx(1.0, abs=1e-10)

    def test_atoms_lie_in_spectrum(self, rng):
        a = random_selfadjoint(rng, 5)
        omega = random_density(rng, 5)
        spec = np.array(spectrum(a))
        for lam, _ in spectral_measure(omega, a).atoms:
            assert np.abs(spec - lam).min() < 1e-8


class TestApplyFunction:
    def test_constant_one(self, rng):
        a = random_selfadjoint(rng, 4)
        np.testing.assert_allclose(
            apply_function(lambda z: 1.0, a).entries, np.eye(4), atol=1e-12
        )

    def test_square_of_sx(self):
        got = apply_function(lambda z: z**2, AlgebraElement(SX))
        np.testing.assert_allclose(got.entries, np.eye(2), atol=1e-12)

    def test_exp_of_diagonal(self):
        a = AlgebraElement(np.diag([0.0, np.pi]))
        got = apply_function(lambda z: np.exp(1j * z), a)
        np.testing.assert_allclose(got.entries, np.diag([1.0, -1.0]), atol=1e-12)

    def test_identity_function(self, rng):
        a = random_selfadjoint(rng, 5)
        np.testing.assert_allclose(
            apply_function(lambda z: z, a).entries, a.entries, atol=1e-10
        )

    def test_exp_i_is_unitary(self, rng):
        a = random_selfadjoint(rng, 5)
        u = apply_function(lambda z: np.exp(1j * z), a).entries
        np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-10)

    def test_polynomial_homomorphism(self, rng):
        a = random_selfadjoint(rng, 4)
        f = lambda z: z**2 - 1.0
        g = lambda z: 2 * z + 0.5
        fg = apply_function(lambda z: f(z) * g(z), a)
        sep = apply_function(f, a) @ apply_function(g, a)
        np.testing.assert_allclose(fg.entries, sep.entries, atol=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_domain_error(self):
        with pytest.raises(EvaluationDomainError):
            apply_function(lambda z: 1.0 / (z - 1.0), AlgebraElement(SZ))


def test_abelian_dispersion_free_states_give_dirac_measures():
    """On the diagonal (commutative) algebra every dispersion-free state is
    a point evaluation, so its spectral measures are Dirac."""
    basis = generate_algebra([AlgebraElement(np.diag([1.0, -1.0, 0.5]))])
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1.0
        omega = from_vector(e)
        # dispersion-free across the whole basis
        for el in basis.elements:
            sym = (el + AlgebraElement(el.entries.conj().T)) * 0.5
            mean = expectation(omega, sym)
            second = expectation(omega, sym @ sym)
            assert abs(second - mean**2) < 1e-10
        a = AlgebraElement(np.diag([1.0, -1.0, 0.5]))
        mu = spectral_measure(omega, a)
        assert mu.weights().max() > 1 - 1e-8
