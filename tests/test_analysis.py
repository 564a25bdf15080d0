import math

import numpy as np
import pytest

from gravopto.analysis import (
    LogicalState,
    concurrence,
    concurrence_theory,
    exact_state,
    exact_traces,
    fidelity_error,
    fidelity_exact,
    fidelity_from_traces,
    perturbative_state,
    perturbative_traces,
    trace_uncertainty,
)


def test_logical_state_validation():
    with pytest.raises(ValueError):
        LogicalState((1.0, 0.0))
    with pytest.raises(ValueError):
        LogicalState((1.0, 1.0, 0.0, 0.0))
    st = LogicalState((0.0, 1.0, 0.0, 0.0))
    assert st.vector()[1] == 1.0
    rho = st.density()
    assert rho.shape == (4, 4) and rho[1, 1] == 1.0


def test_exact_state_values():
    st = exact_state(0.0)
    assert np.allclose(st.vector(), [1, 0, 0, 0])
    st = exact_state(math.pi / 4)
    assert abs(st.amplitudes[0]) == pytest.approx(1 / math.sqrt(2))
    assert st.amplitudes[3] == pytest.approx(1j / math.sqrt(2))


def test_perturbative_state_is_normalized():
    for eps in (0.0, 1e-4, 0.05, 0.29):
        vec = perturbative_state(eps).vector()
        assert np.linalg.norm(vec) == pytest.approx(1.0)
        assert vec[1] == 0.0 and vec[2] == 0.0


def test_perturbative_amplitude_ratio():
    eps = 0.1
    vec = perturbative_state(eps).vector()
    assert (vec[3] / vec[0]) == pytest.approx(1j * eps / (1 - 0.5 * eps ** 2))


def test_perturbative_guard_warns():
    import warnings

    with pytest.warns(UserWarning):
        perturbative_state(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        perturbative_state(0.3)


def test_states_agree_to_fourth_order():
    for eps in (1e-3, 1e-2, 0.05):
        f = fidelity_exact(perturbative_state(eps), exact_state(eps))
        assert 1.0 - f <= 10.0 * eps ** 4


class TestConcurrence:
    def test_product_states_have_none(self):
        assert concurrence(LogicalState((1, 0, 0, 0))) == pytest.approx(0.0, abs=1e-12)
        plus = 0.5
        st = LogicalState((plus, plus, plus, plus))
        assert concurrence(st) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state_is_maximal(self):
        st = LogicalState((1 / math.sqrt(2), 0, 0, 1j / math.sqrt(2)))
        assert concurrence(st) == pytest.approx(1.0)

    def test_matches_closed_form_for_evolution(self):
        for eps in np.linspace(-0.8, 0.8, 17):
            got = concurrence(exact_state(float(eps)))
            assert abs(got - concurrence_theory(float(eps))) <= 1e-12

    def test_mode_swap_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            vec /= np.linalg.norm(vec)
            swapped = vec.reshape(2, 2).T.reshape(-1)
            assert concurrence(vec) == pytest.approx(concurrence(swapped))

    def test_small_epsilon_linearization(self):
        eps = 0.05
        assert concurrence(perturbative_state(eps)) == pytest.approx(2 * eps, abs=1e-3)


def test_exact_traces_values():
    eps = 0.2
    t = exact_traces(eps)
    assert t["ZZ"] == 1.0
    assert t["XY"] == t["YX"] == pytest.approx(math.sin(0.4))
    assert t["IZ"] == t["ZI"] == pytest.approx(math.cos(0.4))


def test_perturbative_traces_values():
    t = perturbative_traces(0.1)
    assert t["XY"] == pytest.approx(0.2)
    assert t["IZ"] == pytest.approx(0.98)


class TestFidelityFromTraces:
    def test_perturbative_inputs_overshoot_by_two_eps_fourth(self):
        for eps in (1e-3, 1e-2, 0.05, 0.1):
            f = fidelity_from_traces(eps, perturbative_traces(eps))
            assert f - 1.0 == pytest.approx(2.0 * eps ** 4, rel=1e-6, abs=1e-15)

    def test_exact_inputs_overshoot_by_eps_fourth(self):
        for eps in (1e-2, 0.05, 0.1):
            f = fidelity_from_traces(eps, exact_traces(eps))
            assert f - 1.0 == pytest.approx(eps ** 4, rel=5e-2)

    def test_zero_coupling_ground_state(self):
        traces = {"ZZ": 1.0, "XY": 0.0, "YX": 0.0, "IZ": 1.0, "ZI": 1.0}
        assert fidelity_from_traces(0.0, traces) == pytest.approx(1.0)

    def test_totally_mixed_inputs(self):
        traces = dict.fromkeys(("ZZ", "XY", "YX", "IZ", "ZI"), 0.0)
        assert fidelity_from_traces(0.1, traces) == pytest.approx(0.25)

    def test_accepts_tomography_result_shape(self):
        class Box:
            traces = exact_traces(0.02)

        assert fidelity_from_traces(0.02, Box()) == pytest.approx(
            fidelity_from_traces(0.02, exact_traces(0.02))
        )

    def test_missing_or_invalid_traces(self):
        with pytest.raises(ValueError):
            fidelity_from_traces(0.1, {"ZZ": 1.0})
        bad = exact_traces(0.1)
        bad["XY"] = 1.5
        with pytest.raises(ValueError):
            fidelity_from_traces(0.1, bad)

    def test_tiny_overshoot_tolerated_and_clamped(self):
        traces = dict.fromkeys(("ZZ", "IZ", "ZI"), 1.0 + 5e-7)
        traces.update({"XY": 0.0, "YX": 0.0})
        assert fidelity_from_traces(0.0, traces) == pytest.approx(1.0)


class TestFidelityExact:
    def test_self_overlap(self):
        st = exact_state(0.3)
        assert fidelity_exact(st, st) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = LogicalState((1, 0, 0, 0))
        b = LogicalState((0, 0, 0, 1))
        assert fidelity_exact(a, b) == pytest.approx(0.0)

    def test_symmetry(self):
        a = exact_state(0.2)
        b = perturbative_state(0.15)
        assert fidelity_exact(a, b) == pytest.approx(fidelity_exact(b, a))

    def test_density_matrix_argument(self):
        st = exact_state(0.25)
        rho = st.density()
        assert fidelity_exact(st, rho) == pytest.approx(1.0)
        mixed = 0.5 * LogicalState((1, 0, 0, 0)).density() + 0.5 * rho
        want = 0.5 * abs(st.amplitudes[0]) ** 2 + 0.5
        assert fidelity_exact(st, mixed) == pytest.approx(want)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            fidelity_exact(np.array([1.0, 1.0, 0.0, 0.0]), exact_state(0.1))


def test_formula_tracks_true_overlap():
    # the trace formula evaluated on exact correlators stays within O(eps^4)
    # of the true overlap between exact and perturbative states
    for eps in (1e-3, 0.01, 0.05, 0.1):
        from_traces = fidelity_from_traces(eps, exact_traces(eps))
        direct = fidelity_exact(perturbative_state(eps), exact_state(eps))
        assert abs(from_traces - direct) <= 20.0 * eps ** 4


class TestTraceUncertainty:
    def test_reference_value(self):
        assert trace_uncertainty(1.0, 0.02, n_qubits=4) == pytest.approx(0.16)

    def test_zero_rate(self):
        assert trace_uncertainty(0.7, 0.0) == 0.0

    def test_scaling(self):
        assert trace_uncertainty(0.0, 0.01, n_qubits=2) == pytest.approx(0.02)
        assert trace_uncertainty(-1.0, 0.3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            trace_uncertainty(0.5, 0.5)
        with pytest.raises(ValueError):
            trace_uncertainty(0.5, -0.1)
        with pytest.raises(ValueError):
            trace_uncertainty(0.5, 0.1, n_qubits=0)


class TestFidelityError:
    def test_zero_rate_gives_zero(self):
        assert fidelity_error(0.01, exact_traces(0.01), 0.0) == 0.0

    def test_hand_computed_value(self):
        eps = 0.0
        traces = {"ZZ": 1.0, "XY": 0.0, "YX": 0.0, "IZ": 1.0, "ZI": 1.0}
        lam = 0.02
        # all three surviving deltas are 0.16; off-diagonal weights vanish
        want = 0.25 * math.sqrt(0.16 ** 2 * 3)
        assert fidelity_error(eps, traces, lam) == pytest.approx(want)

    def test_monotone_in_rate(self):
        eps = 0.01
        traces = exact_traces(eps)
        errs = [fidelity_error(eps, traces, lam) for lam in (0.0, 0.01, 0.02, 0.05)]
        assert errs == sorted(errs)

    def test_nonnegative(self):
        for eps in (0.0, 0.1, 0.4):
            assert fidelity_error(eps, exact_traces(eps), 0.03) >= 0.0
