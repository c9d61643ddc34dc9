"""Full mode's input-register distribution against Shor's closed form (``exact.py``).

The closed form shares no code with the simulator, so these checks judge what
full mode draws, not how it draws it.
"""

import math

import numpy as np
import pytest

from shorsim import (
    QuantumState,
    apply_qft_on,
    choose_register_size,
    modexp_oracle,
    prepare_uniform,
    recover_period,
    run_once_full,
)

import exact

MODULI = (15, 21, 33, 35, 39)


def _joint_after_oracle(n_to_factor: int, a: int):
    """The joint register after the Hadamard layer and the oracle, with its widths."""
    in_w = choose_register_size(n_to_factor)
    out_w = (n_to_factor - 1).bit_length()
    amps = np.zeros(1 << (in_w + out_w), np.complex128)
    amps[: 1 << in_w] = prepare_uniform(in_w).amplitudes
    state = QuantumState(in_w + out_w, amps)
    state.apply_permutation(modexp_oracle(a, n_to_factor, in_w, out_w))
    return state, in_w, out_w


@pytest.mark.parametrize("n_to_factor", MODULI)
def test_input_marginal_matches_closed_form(n_to_factor):
    # every coprime base; the output register unmeasured, and measured with the
    # conditional distributions averaged over its outcomes
    for a in range(2, n_to_factor):
        if math.gcd(a, n_to_factor) != 1:
            continue
        joint, in_w, out_w = _joint_after_oracle(n_to_factor, a)
        expect = exact.y_distribution(n_to_factor, a, in_w)

        blocks = joint.amplitudes.reshape(1 << out_w, 1 << in_w).copy()
        weights = (np.abs(blocks) ** 2).sum(axis=1)
        averaged = np.zeros(1 << in_w)
        for f0 in np.flatnonzero(weights):
            conditional = QuantumState(in_w, blocks[f0] / np.sqrt(weights[f0]))
            apply_qft_on(conditional, range(in_w))
            averaged += weights[f0] * conditional.probabilities()
        np.testing.assert_allclose(averaged, expect, rtol=0, atol=1e-12, err_msg=f"a={a}, f measured")

        apply_qft_on(joint, range(in_w))
        unmeasured = joint.probabilities().reshape(1 << out_w, 1 << in_w).sum(axis=0)
        np.testing.assert_allclose(unmeasured, expect, rtol=0, atol=1e-12, err_msg=f"a={a}, f unmeasured")


@pytest.mark.parametrize("n_to_factor, a", [(15, 7), (21, 2)])
def test_success_rate_matches_closed_form(n_to_factor, a):
    # the share of seeded attempts that find the order against the closed-form
    # mass of every y from which recover_period returns it: this covers the
    # sampler and its draws as well as the quantum stages
    in_w = choose_register_size(n_to_factor)
    r, m = exact.naive_order(a, n_to_factor), 1 << in_w
    p = sum(
        exact.p_y(y, r, m)
        for y in range(m)
        if (c := recover_period(y, m, n_to_factor, a)) is not None and c.r == r
    )
    attempts = 2000
    stream = np.random.default_rng(9508027)
    found = sum(run_once_full(n_to_factor, a, stream).candidate_r == r for _ in range(attempts))
    sigma = math.sqrt(p * (1 - p) / attempts)
    assert abs(found / attempts - p) <= 5 * sigma, f"{found}/{attempts} against P = {p:.6f}"
