"""Factoring driver: register sizing, pipeline stages, retry policy, modes."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shorsim.numtheory as numtheory_mod
import shorsim.oracle as oracle_mod
import shorsim.shor as shor_mod
from shorsim import (
    Convergent,
    ShorConfig,
    apply_qft_on,
    basis_state,
    build_period_state,
    choose_register_size,
    gcd,
    hadamard,
    mod_pow,
    modexp_oracle,
    multiplicative_order,
    prepare_uniform,
    qft_circuit,
    run_once_classical,
    run_once_full,
    run_once_hybrid,
    run_shor,
)
from shorsim.shor import MAX_RUNS, RunRecord, STATUS_LUCKY_GCD, STATUS_NO_CANDIDATE

from conftest import assert_bitwise_equal, traced_peak
from exact import y_distribution

# Frozen driver seeds: each factors its modulus through the quantum path.
DOCUMENTED_SEEDS = {15: 0, 21: 1, 35: 1}


def at_largest_roots(test):
    """Examples b**e - 1, b**e and b**e + 1 with b the largest root of b**e < 2**64,
    for each prime exponent e: the float root of n is least accurate there."""
    for e in shor_mod._PRIME_EXPONENTS:
        b = int(2 ** (64 / e))
        while b**e >= 1 << 64:
            b -= 1
        while (b + 1) ** e < 1 << 64:
            b += 1
        for shift in (-1, 0, 1):
            test = example((b, e), shift)(test)
    return test


class TestRegisterSizing:
    def test_15_needs_8(self):
        assert choose_register_size(15) == 8

    def test_21_needs_9(self):
        assert choose_register_size(21) == 9

    def test_boundary_power_of_two(self):
        assert choose_register_size(4) == 4

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 2**64 - 1))
    def test_smallest_width_holding_n_squared(self, n):
        b = choose_register_size(n)
        assert 2 ** (b - 1) < n * n <= 2**b


class TestPrepareUniform:
    def test_two_qubits(self):
        np.testing.assert_allclose(
            prepare_uniform(2).amplitudes, np.full(4, 0.5), atol=1e-15
        )

    def test_three_qubits(self):
        np.testing.assert_allclose(
            prepare_uniform(3).amplitudes, np.full(8, 1 / np.sqrt(8)), atol=1e-15
        )

    def test_norm_up_to_twenty_qubits(self):
        for n in (10, 16, 20):
            assert abs(prepare_uniform(n).norm() - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", range(15))
    def test_doubling_is_bitwise_the_hadamard_ladder(self, n):
        ladder = basis_state(n, 0)
        for q in range(n):
            ladder.apply_single(hadamard(), q)
        assert_bitwise_equal(prepare_uniform(n).amplitudes, ladder.amplitudes)


class TestBuildPeriodState:
    def test_nine_terms_of_one_third(self):
        s = build_period_state(6, 4, 7)
        support = np.flatnonzero(s.amplitudes)
        np.testing.assert_array_equal(support, np.arange(4, 64, 7))
        np.testing.assert_allclose(s.amplitudes[support], np.full(9, 1 / 3), atol=1e-15)

    def test_period_one_is_uniform(self):
        np.testing.assert_allclose(
            build_period_state(3, 0, 1).amplitudes, np.full(8, 1 / np.sqrt(8)), atol=1e-15
        )

    def test_single_term(self):
        s = build_period_state(4, 0, 16)
        assert s.amplitudes[0] == 1
        assert np.count_nonzero(s.amplitudes) == 1

    def test_zero_period_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            build_period_state(4, 0, 0)

    def test_offset_must_be_below_period(self):
        with pytest.raises(ValueError, match="x0"):
            build_period_state(4, 3, 3)


class TestRunOnceFull:
    def test_seeded_y_192_recovers_period_4(self):
        rec = run_once_full(15, 7, np.random.default_rng(1))
        assert rec.y == 192
        assert rec.candidate_r == 4
        assert rec.status == "period-found"

    def test_seeded_y_0_no_candidate(self):
        rec = run_once_full(15, 7, np.random.default_rng(3))
        assert rec.y == 0
        assert rec.candidate_r is None
        assert rec.status == "no-candidate"

    @pytest.mark.parametrize("n_to_factor, a", [(15, 7), (21, 2), (33, 5), (35, 2), (39, 7)])
    def test_transform_on_input_block_matches_whole_register(self, n_to_factor, a):
        # the run transforms and measures only the input register's block;
        # doing both on the whole register draws the same y from the same rng
        in_w = choose_register_size(n_to_factor)
        total = in_w + shor_mod._output_width(n_to_factor)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            state = basis_state(total, 0)
            state.amplitudes[: 1 << in_w] = prepare_uniform(in_w).amplitudes
            state.apply_permutation(modexp_oracle(a, n_to_factor, in_w, total - in_w))
            f = state.measure_subregister(range(in_w, total), rng).value
            apply_qft_on(state, range(in_w))
            y = state.measure_subregister(range(in_w), rng).value
            rec = run_once_full(n_to_factor, a, np.random.default_rng(seed))
            assert (rec.f_outcome, rec.y) == (f, y)

    @pytest.mark.parametrize("n_to_factor", [15, 21, 33, 35, 39])
    def test_joint_state_is_bitwise_the_permuted_uniform_register(self, n_to_factor, monkeypatch):
        # the run writes the uniform block straight to the oracle's images of
        # |x, 0>; scattering the whole register gives the same bits
        in_w, out_w = choose_register_size(n_to_factor), shor_mod._output_width(n_to_factor)
        total = in_w + out_w
        measured = []
        original = shor_mod.QuantumState.measure_subregister

        def capture(state, qubits, rng):
            measured.append(state.amplitudes.copy())
            return original(state, qubits, rng)

        monkeypatch.setattr(shor_mod.QuantumState, "measure_subregister", capture)
        for a in range(2, n_to_factor):
            if gcd(a, n_to_factor) != 1:
                continue
            measured.clear()
            run_once_full(n_to_factor, a, np.random.default_rng(a))
            expect = basis_state(total, 0)
            expect.amplitudes[: 1 << in_w] = prepare_uniform(in_w).amplitudes
            expect.apply_permutation(modexp_oracle(a, n_to_factor, in_w, out_w))
            assert_bitwise_equal(measured[0], expect.amplitudes)

    def test_hadamard_layer_builds_no_uniform_register(self, monkeypatch):
        # the layer is one scalar written to the oracle's images, not a 2**in_w array
        expect = [run_once_full(35, a, np.random.default_rng(a)) for a in (2, 3, 4)]

        def no_register(*args, **kwargs):
            raise AssertionError("the run built prepare_uniform's register")

        monkeypatch.setattr(shor_mod, "prepare_uniform", no_register)
        assert [run_once_full(35, a, np.random.default_rng(a)) for a in (2, 3, 4)] == expect

    def test_skipping_f_measurement_leaves_marginal_unchanged(self):
        # exact distributions, no sampling: the closed form, which is the marginal
        # with f unmeasured, equals the f-measured conditional averaged over f outcomes
        n_to_factor, a = 15, 7
        in_w, out_w = 8, 4
        unmeasured = y_distribution(n_to_factor, a, in_w)

        averaged = np.zeros(1 << in_w)
        base = basis_state(in_w + out_w, 0)
        for q in range(in_w):
            base.apply_single(hadamard(), q)
        base.apply_permutation(modexp_oracle(a, n_to_factor, in_w, out_w))
        joint = base.probabilities().reshape(1 << out_w, 1 << in_w)
        for f0 in np.flatnonzero(joint.sum(axis=1)):
            pf = joint[f0].sum()
            conditional = basis_state(in_w, 0)
            conditional.amplitudes = (
                base.amplitudes.reshape(1 << out_w, 1 << in_w)[f0] / np.sqrt(pf)
            ).copy()
            apply_qft_on(conditional, range(in_w))
            averaged += pf * conditional.probabilities()
        np.testing.assert_allclose(unmeasured, averaged, atol=1e-10)

    def test_memory_cap_error_mentions_hybrid(self):
        with pytest.raises(ValueError, match="hybrid"):
            run_once_full(15, 7, np.random.default_rng(0), max_qubits=10)

    def test_non_coprime_base_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            run_once_full(15, 5, np.random.default_rng(0))

    def test_shared_factor_base_rejected_before_allocating(self):
        # N=77 would run 13 + 7 = 20 qubits, a 16 MiB state
        with traced_peak() as peak, pytest.raises(ValueError, match="shares a factor"):
            run_once_full(77, 7, np.random.default_rng(0))
        assert peak.bytes < 1 << 20

    def test_peak_memory_below_three_state_sizes(self):
        # N=35 runs 11 + 6 = 17 qubits, a 2 MiB state
        state_bytes = 16 << 17
        with traced_peak() as peak:
            run_once_full(35, 2, np.random.default_rng(3))
        assert peak.bytes < 3 * state_bytes

    def test_joint_state_is_the_only_state_size_array(self):
        # N=35 runs 11 + 6 = 17 qubits; the oracle image (half the state) is
        # freed before the state exists, and both draws hold a piece of Born
        # weights at a time, a fixed 0.25 MiB, not a state's worth
        state_bytes = 16 << 17
        with traced_peak() as peak:
            run_once_full(35, 2, np.random.default_rng(3))
        assert peak.bytes < 1.2 * state_bytes


class TestCollapseShape:
    @pytest.mark.parametrize("n_to_factor", [15, 21, 33, 35])
    def test_f_measurement_collapses_to_arithmetic_progression(self, n_to_factor):
        in_w = choose_register_size(n_to_factor)
        out_w = (n_to_factor - 1).bit_length()
        for a in range(2, n_to_factor):
            if gcd(a, n_to_factor) != 1:
                continue
            r = multiplicative_order(a, n_to_factor)
            state = basis_state(in_w + out_w, 0)
            for q in range(in_w):
                state.apply_single(hadamard(), q)
            state.apply_permutation(modexp_oracle(a, n_to_factor, in_w, out_w))
            out = state.measure_subregister(range(in_w, in_w + out_w), np.random.default_rng(a))
            probs = state.probabilities().reshape(1 << out_w, 1 << in_w)[out.value]
            support = np.flatnonzero(probs > 1e-15)
            x0 = int(support[0])
            np.testing.assert_array_equal(support, np.arange(x0, 1 << in_w, r))
            np.testing.assert_allclose(probs[support], probs[x0], atol=1e-12)

    @pytest.mark.parametrize("n_to_factor", [15, 21, 33, 35])
    def test_post_transform_concentration_exceeds_three_quarters(self, n_to_factor):
        size = 1 << choose_register_size(n_to_factor)
        for a in range(2, n_to_factor):
            if gcd(a, n_to_factor) != 1:
                continue
            r = multiplicative_order(a, n_to_factor)
            probs = y_distribution(n_to_factor, a, choose_register_size(n_to_factor))
            centers = {round(k * size / r) % size for k in range(r)}
            mass = sum(
                probs[y]
                for y in range(size)
                if any(min(abs(y - c), size - abs(y - c)) <= 1 for c in centers)
            )
            assert mass > 0.75, f"a={a}: concentrated mass only {mass:.3f}"


class TestHybrid:
    def test_hybrid_matches_full_conditioned_on_f(self):
        n_to_factor, a = 15, 7
        in_w, out_w = 8, 4
        state = basis_state(in_w + out_w, 0)
        for q in range(in_w):
            state.apply_single(hadamard(), q)
        state.apply_permutation(modexp_oracle(a, n_to_factor, in_w, out_w))
        f0 = state.measure_subregister(range(in_w, in_w + out_w), np.random.default_rng(5)).value
        apply_qft_on(state, range(in_w))
        full_probs = state.probabilities().reshape(1 << out_w, 1 << in_w)[f0]

        r = multiplicative_order(a, n_to_factor)
        x0 = min(xv for xv in range(r) if mod_pow(a, xv, n_to_factor) == f0)
        hybrid = build_period_state(in_w, x0, r)
        apply_qft_on(hybrid, range(in_w))
        np.testing.assert_allclose(hybrid.probabilities(), full_probs, atol=1e-10)

    def test_hybrid_mode_factors(self):
        result = run_shor(ShorConfig(35, seed=3, mode="hybrid"))
        assert result.factors == (5, 7)

    def test_order_past_the_register_collapses_to_one_input(self):
        # the order of 2 mod 21 is 6 > 2**2: every input has its own f value
        r = multiplicative_order(2, 21)
        for seed in range(30):
            rec = run_once_hybrid(21, 2, np.random.default_rng(seed), r=r, n=2)
            assert 0 <= rec.y < 4

    def test_full_mode_falls_back_to_hybrid_under_cap(self):
        result = run_shor(ShorConfig(15, seed=0, max_qubits=10))
        assert result.factors == (3, 5)
        assert all(rec.f_outcome is None for rec in result.runs)
        assert all(rec.mode == "hybrid" for rec in result.runs)


class TestRunShor:
    @pytest.mark.parametrize("n_to_factor,expected", [(15, (3, 5)), (21, (3, 7)), (35, (5, 7))])
    def test_documented_seeds(self, n_to_factor, expected):
        result = run_shor(ShorConfig(n_to_factor, seed=DOCUMENTED_SEEDS[n_to_factor]))
        assert result.factors == expected
        assert len(result.runs) <= 25
        assert result.gate_estimate > 0

    @pytest.mark.parametrize("config", [
        ShorConfig(21, seed=1),
        ShorConfig(143, seed=3, mode="hybrid"),  # three hybrid runs
        ShorConfig(15, seed=0, max_qubits=10),   # full falls back to hybrid
    ], ids=["full", "hybrid", "fallback"])
    def test_gate_estimate_is_the_sum_over_quantum_runs(self, config):
        result = run_shor(config)
        expected = sum(
            qft_circuit(rec.n).gate_count + (rec.n + 1 if rec.mode == "full" else 0)
            for rec in result.runs
        )
        assert result.gate_estimate == expected > 0

    def test_prime_input_rejected(self):
        with pytest.raises(ValueError, match="13 is prime"):
            run_shor(ShorConfig(13))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ShorConfig(2)

    def test_even_input_shortcut(self):
        assert run_shor(ShorConfig(394)).factors == (2, 197)

    def test_perfect_power_shortcut(self):
        assert run_shor(ShorConfig(27)).factors == (3, 9)
        assert run_shor(ShorConfig(121)).factors == (11, 11)

    @settings(max_examples=300, deadline=None)
    @at_largest_roots
    @given(
        st.integers(2, 63).flatmap(
            lambda e: st.tuples(st.integers(2, max(2, (1 << 64 // e) - 1)), st.just(e))
        ),
        st.integers(-1, 1),
    )
    def test_perfect_power_root_tries_every_exponent(self, root_and_exponent, shift):
        # Prime exponents only must give the root of the least exponent that
        # works, as trying every exponent with exact integer roots does.
        b, e = root_and_exponent
        n = b**e + shift
        expected = None
        for k in range(2, n.bit_length() + 1):
            lo, hi = 1, 1 << (n.bit_length() // k + 1)
            while lo < hi:  # least root with root**k >= n
                mid = (lo + hi) // 2
                lo, hi = (mid + 1, hi) if mid**k < n else (lo, mid)
            if lo**k == n:
                expected = lo
                break
        assert shor_mod._perfect_power_root(n) == expected

    def test_classical_forced_base_seeds_no_generator(self, monkeypatch):
        def no_generator(seed):
            raise AssertionError("classical mode with a forced base drew a generator")

        monkeypatch.setattr(shor_mod.np.random, "default_rng", no_generator)
        result = run_shor(ShorConfig(12827, base=2, mode="classical"))
        assert result.factors == (101, 127)

    def test_forced_noncoprime_base_is_lucky(self):
        result = run_shor(ShorConfig(15, base=5))
        assert result.factors == (3, 5)
        assert result.runs[-1].status == "lucky-gcd"

    def test_max_runs_bounded_above(self):
        assert ShorConfig(15, max_runs=MAX_RUNS).max_runs == MAX_RUNS
        with pytest.raises(ValueError, match="max_runs"):
            ShorConfig(15, max_runs=MAX_RUNS + 1)

    def test_classical_forced_base_computes_its_order_once(self, monkeypatch):
        calls = []

        def counted(a, n):
            calls.append(a)
            return multiplicative_order(a, n)

        monkeypatch.setattr(shor_mod, "multiplicative_order", counted)
        result = run_shor(ShorConfig(15, base=14, mode="classical", max_runs=4))
        assert [rec.status for rec in result.runs] == ["trivial-root"] * 4
        assert calls == [14]

    def test_hybrid_forced_base_computes_its_order_once(self, monkeypatch):
        calls = []

        def counted(a, n):
            calls.append(a)
            return multiplicative_order(a, n)

        monkeypatch.setattr(shor_mod, "multiplicative_order", counted)
        # 142 = -1 mod 143: order 2, which never splits 143
        result = run_shor(ShorConfig(143, base=142, mode="hybrid", max_runs=4))
        assert result.factors is None and len(result.runs) == 4
        assert calls == [142]

    def test_forced_bad_base_exhausts_runs(self):
        # 14 = -1 mod 15: order 2 with a trivial square root, every time
        result = run_shor(ShorConfig(15, base=14, mode="classical", max_runs=4))
        assert result.factors is None
        assert not result.success
        assert [rec.status for rec in result.runs] == ["trivial-root"] * 4

    @pytest.mark.parametrize("config,mode", [
        (ShorConfig(15, seed=0), "full"),
        (ShorConfig(35, seed=3, mode="hybrid"), "hybrid"),
        (ShorConfig(12827, mode="classical"), "classical"),
        (ShorConfig(15, base=5, mode="classical"), "classical"),  # lucky gcd
    ])
    def test_every_record_names_the_mode_that_ran(self, config, mode):
        result = run_shor(config)
        assert result.runs
        assert all(rec.mode == mode for rec in result.runs)

    def test_classical_mode_worked_instance(self):
        result = run_shor(ShorConfig(12827, mode="classical", seed=0))
        assert result.factors == (101, 127)

    def test_period_found_statuses_are_verified(self):
        for seed in range(20):
            result = run_shor(ShorConfig(33, seed=seed, max_runs=10))
            for rec in result.runs:
                if rec.status == "period-found":
                    assert mod_pow(rec.a, rec.candidate_r, 33) == 1
            if result.success:
                p, q = result.factors
                assert p * q == 33 and p > 1 and q > 1

    def test_classical_run_record_shape(self):
        rec = run_once_classical(12827, 2, multiplicative_order(2, 12827))
        assert rec.candidate_r == multiplicative_order(2, 12827)
        assert rec.y is None and rec.n is None

    def test_run_without_verified_order_repeats_its_base(self, monkeypatch):
        # lcm(4, 6) is the order 12 of 2 mod 35, but unverified denominators are
        # never combined: each run without a verified order retries its base
        assert multiplicative_order(2, 35) == 12
        fragments = [[Convergent(1, 4)], [Convergent(1, 6)]]

        def fake_run_once(n_to_factor, a, rng, **kwargs):
            return RunRecord(
                a=a, n=11, y=99, convergents=list(fragments.pop(0)),
                status=STATUS_NO_CANDIDATE,
            )

        monkeypatch.setattr(shor_mod, "run_once_full", fake_run_once)
        result = run_shor(ShorConfig(35, base=2, max_runs=2))
        assert result.factors is None
        assert [rec.status for rec in result.runs] == ["no-candidate"] * 2
        assert [rec.a for rec in result.runs] == [2, 2]
        assert all(rec.candidate_r is None for rec in result.runs)

    def test_independent_seeds_do_not_share_state(self):
        a = run_shor(ShorConfig(35, seed=9)).runs
        b = run_shor(ShorConfig(35, seed=9)).runs
        assert [(r.a, r.y, r.status) for r in a] == [(r.a, r.y, r.status) for r in b]


@pytest.mark.parametrize("mode", ["hybrid", "classical"])
def test_shared_factor_base_rejected_off_the_full_path(mode, monkeypatch):
    # run_shor's gcd test settles the base before any order is asked for
    def no_order(a, n):
        raise AssertionError("order requested for a base sharing a factor")

    monkeypatch.setattr(shor_mod, "multiplicative_order", no_order)
    result = run_shor(ShorConfig(15, base=5, mode=mode))
    assert result.factors == (3, 5)
    assert [rec.status for rec in result.runs] == [STATUS_LUCKY_GCD]


def test_hybrid_uses_only_input_register_width():
    rec = run_once_hybrid(35, 2, np.random.default_rng(0), r=multiplicative_order(2, 35))
    assert rec.n == choose_register_size(35)
    assert rec.f_outcome is None


def test_measured_y_frequencies_match_exact_distribution():
    # sampled runs against the exact y distribution (law of total probability
    # over the measured f outcomes), 5-sigma bands on the four main peaks
    exact = y_distribution(15, 7, choose_register_size(15))
    draws = 1000
    stream = np.random.default_rng(17)
    counts = np.zeros(exact.size)
    for _ in range(draws):
        counts[run_once_full(15, 7, stream).y] += 1
    for y in (0, 64, 128, 192):
        sigma = np.sqrt(exact[y] * (1 - exact[y]) / draws)
        assert abs(counts[y] / draws - exact[y]) <= 5 * sigma
    assert counts.sum() == draws


@pytest.mark.parametrize("n_to_factor", [15, 21, 33, 35, 39])
def test_full_mode_factors_from_measurements_alone(n_to_factor, monkeypatch):
    # what full mode does, not how it does it: no classical order search, the
    # output register measured, and the input register at its chosen width
    def no_order(a, n):
        raise AssertionError(f"full mode asked for the order of {a} mod {n}")

    monkeypatch.setattr(shor_mod, "multiplicative_order", no_order)
    monkeypatch.setattr(numtheory_mod, "multiplicative_order", no_order)
    for seed in range(20):
        result = run_shor(ShorConfig(n_to_factor, seed=seed, mode="full"))
        p, q = result.factors
        assert 1 < p <= q and p * q == n_to_factor, f"seed {seed}"
        for record in result.runs:
            if record.status == STATUS_LUCKY_GCD:
                continue
            assert record.f_outcome is not None
            assert record.n == choose_register_size(n_to_factor)
            assert record.mode == "full"


def test_full_mode_never_builds_the_oracle_image(monkeypatch):
    # the run scatters at the images of |x, 0>, worked out from the f-table alone
    def no_image(perm):
        raise AssertionError("full mode built the oracle's XOR image")

    monkeypatch.setattr(oracle_mod.XorPermutation, "table", property(no_image))
    for n_to_factor in (15, 21, 33, 35, 39):
        for seed in range(5):
            result = run_shor(ShorConfig(n_to_factor, seed=seed, mode="full"))
            p, q = result.factors
            assert 1 < p <= q and p * q == n_to_factor, f"{n_to_factor} seed {seed}"
            for record in result.runs:
                assert record.mode == "full"
                assert record.status == STATUS_LUCKY_GCD or record.f_outcome is not None
