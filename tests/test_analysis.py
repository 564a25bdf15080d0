import math

import numpy as np
import pytest

from gravopto.analysis import concurrence_theory, fidelity_error, fidelity_from_traces, trace_uncertainty
from gravopto.experiment import ExperimentConfig, compile_sweep
from gravopto.simulator import NoiseModel, outcome_distributions
from gravopto.tomography import expectations

from oracles import bound_points, concurrence, exact_state, exact_traces, perturbative_traces


def perturbative_state(eps: float) -> np.ndarray:
    """The fidelity target, (1 - eps^2/2)|00> + i eps |11>, normalized."""
    amps = np.array([1.0 - 0.5 * eps ** 2, 0.0, 0.0, 1j * eps])
    return amps / np.linalg.norm(amps)


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 of two pure states."""
    return float(abs(np.vdot(a, b)) ** 2)


def test_logical_state_validation():
    # a two-mode state is four normalized amplitudes
    with pytest.raises(ValueError):
        concurrence(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        concurrence(np.array([1.0, 1.0, 0.0, 0.0]))
    assert concurrence(np.array([0.0, 1.0, 0.0, 0.0])) == 0.0


def test_exact_state_values():
    assert np.allclose(exact_state(0.0), [1, 0, 0, 0])
    st = exact_state(math.pi / 4)
    assert st.shape == (4,) and st.dtype == complex
    assert abs(st[0]) == pytest.approx(1 / math.sqrt(2))
    assert st[3] == pytest.approx(1j / math.sqrt(2))


def test_states_agree_to_fourth_order():
    for eps in (1e-3, 1e-2, 0.05):
        f = overlap(perturbative_state(eps), exact_state(eps))
        assert 1.0 - f <= 10.0 * eps ** 4


class TestConcurrence:
    def test_product_states_have_none(self):
        assert concurrence(np.array([1, 0, 0, 0])) == pytest.approx(0.0, abs=1e-12)
        st = np.full(4, 0.5)
        assert concurrence(st) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state_is_maximal(self):
        st = np.array([1 / math.sqrt(2), 0, 0, 1j / math.sqrt(2)])
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
        # a dict of each setting's estimate, from its exact distribution
        (_, circuits), = bound_points(compile_sweep(ExperimentConfig(transpile=False,
                                                                     epsilon_values=(0.02,))))
        traces = {label: float(expectations(outcome_distributions([circ], NoiseModel())[0][None],
                                            label)[0][0])
                  for label, (_, circ) in circuits.items()}
        assert fidelity_from_traces(0.02, traces) == pytest.approx(
            fidelity_from_traces(0.02, exact_traces(0.02)), abs=1e-12
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


def test_formula_tracks_true_overlap():
    # the trace formula evaluated on exact correlators stays within O(eps^4)
    # of the true overlap between exact and perturbative states
    for eps in (1e-3, 0.01, 0.05, 0.1):
        from_traces = fidelity_from_traces(eps, exact_traces(eps))
        direct = overlap(perturbative_state(eps), exact_state(eps))
        assert abs(from_traces - direct) <= 20.0 * eps ** 4


class TestTraceUncertainty:
    def test_reference_value(self):
        assert trace_uncertainty(1.0, 0.02) == pytest.approx(0.16)

    def test_zero_rate(self):
        assert trace_uncertainty(0.7, 0.0) == 0.0

    def test_scaling(self):
        assert trace_uncertainty(0.0, 0.01) == pytest.approx(0.04)
        assert trace_uncertainty(-1.0, 0.3) == 0.0


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
