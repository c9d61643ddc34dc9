"""Tests of the benchmark itself: inputs, tail rule, self times, tracer, verification.

    python3 -m pytest -q perfbench
"""

import math
import sys
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, load_program  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return load_program()


def _inputs(name, seed, tmp_path, n=24):
    w = WORKLOADS[name]
    items = list(islice(w.inputs(seed, tmp_path / f"s{seed}"), n))
    if name == "circuit-mix":
        # the circuit texts are inputs too, not just their paths
        return [(Path(i.path).read_text(), i.init, i.seed) for i in items]
    return items


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    assert _inputs(name, 5, tmp_path) == _inputs(name, 5, tmp_path / "again")
    assert _inputs(name, 5, tmp_path) != _inputs(name, 6, tmp_path)


@pytest.mark.parametrize("name", sorted(n for n, w in WORKLOADS.items() if w.mode))
def test_factoring_inputs_use_splitting_bases_of_maximal_order(name, tmp_path):
    w = WORKLOADS[name]
    for inp in islice(w.inputs(3, tmp_path), 2 * len(w.pool)):
        assert inp.p * inp.q == inp.n
        r = pow_order(inp.base, inp.n)
        assert r == (inp.p - 1) * (inp.q - 1) // gcd(inp.p - 1, inp.q - 1)
        assert r % 2 == 0 and pow(inp.base, r // 2, inp.n) != inp.n - 1


def gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def pow_order(a, n):
    r, x = 1, a % n
    while x != 1:
        x, r = x * a % n, r + 1
    return r


# -- tail rule ----------------------------------------------------------------

@settings(derandomize=True, max_examples=300)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=400))
def test_tail_has_ten_beyond_and_no_higher_percentile_does(values):
    s = sorted(values)

    def beyond(pct):
        value = s[max(math.ceil(pct / 100 * len(s)), 1) - 1]
        return value, sum(v > value for v in s)

    try:
        value, pct, n_beyond = run.tail(values)
    except ValueError:
        assert all(beyond(p)[1] < run.TAIL_BEYOND for p in run.TAIL_PERCENTILES)
        return
    assert (value, n_beyond) == beyond(pct)
    assert n_beyond >= run.TAIL_BEYOND
    assert all(beyond(p)[1] < run.TAIL_BEYOND for p in run.TAIL_PERCENTILES if p > pct)


def test_tail_percentile_by_sample_count():
    assert run.tail([float(i) for i in range(20)]) == (9.0, 50.0, 10)
    assert run.tail([float(i) for i in range(99)])[1] == 50.0
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([float(i) for i in range(999)])[1] == 90.0
    assert run.tail([float(i) for i in range(1000)]) == (989.0, 99.0, 10)
    with pytest.raises(ValueError):
        run.tail([1.0] * 50)
    with pytest.raises(ValueError):
        run.tail([float(i) for i in range(19)])


# -- host calibration -----------------------------------------------------------

def test_every_workload_has_a_reference_calibration_time():
    for w in WORKLOADS.values():
        c = calib.Calibration(w.state_bytes())
        assert c.ref_s > 0 and c() > 0


def test_host_factor_cancels_a_slower_host_and_ignores_one_outlier():
    c = calib.Calibration(0)
    ref = c.ref_s
    # the host runs at full speed for 20 ops, then at half speed for 20
    cal = [ref] * 20 + [2 * ref] * 20
    cal[5] = 50 * ref                      # one disturbed calibration
    lat = [0.1] * 20 + [0.2] * 20
    factors = calib.host_factors(cal, c)
    assert len(factors) == len(cal)
    assert [t / f for t, f in zip(lat, factors)][:15] == pytest.approx([0.1] * 15)
    assert [t / f for t, f in zip(lat, factors)][-15:] == pytest.approx([0.1] * 15)


def test_unknown_state_size_has_no_reference():
    with pytest.raises(ValueError):
        calib.Calibration(3 << 20)


# -- self time ------------------------------------------------------------------

def test_self_time_subtracts_each_child_exactly_once():
    spans = [
        ["op", 0.0, 10.0, -1, 0, 0],
        ["a", 1.0, 6.0, 0, 0, 0],
        ["b", 2.0, 3.0, 1, 0, 0],     # grandchild: counts against a only
        ["c", 3.5, 5.5, 1, 0, 0],
        ["d", 7.0, 9.0, 0, 0, 0],
        ["op", 10.0, 12.0, -1, 1, 0],
        ["e", 10.5, 11.0, 5, 1, 0],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 2.0, 1.5, 0.5]
    assert tracer.op_closure_error(spans) == 0.0


def test_traced_op_self_times_add_up_to_its_wall_time(prog, tmp_path):
    w = WORKLOADS["full-small"]
    t = tracer.Tracer(tracer.patch_table(prog))
    with t:
        for i, inp in enumerate(islice(w.inputs(1, tmp_path), 5)):
            result, _ = t.run_op(i, w.run, prog, inp)
            assert w.verify(inp, result) is None
    assert tracer.op_closure_error(t.spans) < 1e-9
    m = tracer.layer_metrics(t.spans)
    assert m["oracle.modexp_oracle.calls"][0] >= 5
    assert m["state.max_width"][0] == 17
    assert m["shor.stage.qft_s"][0] == m["qft.apply_qft_on.total_s"][0] > 0


# -- tracer restores what it patched --------------------------------------------

def _attrs(table):
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in table]


def test_tracer_restores_every_patched_attribute(prog):
    table = tracer.patch_table(prog)
    before = _attrs(table)
    t = tracer.Tracer(table)
    with pytest.raises(RuntimeError):
        with t:
            assert all(o.__dict__[a] is not orig for o, a, orig in before)
            raise RuntimeError("op blew up")
    assert all(o.__dict__[a] is orig for o, a, orig in before)
    # a classmethod goes back as the same classmethod object
    assert isinstance(prog.circuit.Circuit.__dict__["parse"], classmethod)


# -- verification -------------------------------------------------------------------

def _wrong_factor_run(prog):
    def run_shor(config):
        n = config.n_to_factor
        return prog.shor.FactoringResult(n, (1, n), [], 0)
    return run_shor


def test_wrong_factor_fails_the_op(prog, tmp_path, monkeypatch):
    w = WORKLOADS["full-small"]
    monkeypatch.setattr(prog.shor, "run_shor", _wrong_factor_run(prog))
    loop = run.Loop(w, prog, w.inputs(2, tmp_path))
    loop.run(0.0)
    assert len(loop.failures) == len(loop.done) == run.MIN_OPS
    assert not loop.latencies
    assert "not a factorization" in loop.failures[0]


def test_wrong_factor_fails_the_run(monkeypatch, tmp_path):
    prog = load_program()
    monkeypatch.setattr(prog.shor, "run_shor", _wrong_factor_run(prog))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    with pytest.raises(run.VerificationError):
        run.main(["--workload", "full-small", "--seed", "1", "--seconds", "0", "--trace", "1"])


def test_full_mode_record_without_output_measurement_fails(prog, tmp_path):
    """A full op that silently ran hybrid (no f measurement) is a failure."""
    w = WORKLOADS["full-small"]
    inp = next(w.inputs(4, tmp_path))
    result = w.run(prog, inp)
    assert w.verify(inp, result) is None
    result.runs[-1].f_outcome = None
    assert "not a full-mode run" in w.verify(inp, result)


def test_circuit_mix_checks_every_shot_on_the_initial_state(prog, tmp_path):
    w = WORKLOADS["circuit-mix"]
    inp = next(w.inputs(1, tmp_path))
    code, text = w.run(prog, inp)
    assert w.verify(inp, (code, text)) is None
    assert w.verify(inp, (code, text.replace(f"{inp.init},", f"{inp.init ^ 1},"))) is not None
    assert w.verify(inp, (1, text)) is not None


def test_qft_check_passes_on_the_program(prog):
    assert run.check_qft(prog, 7) <= run.QFT_CHECK_TOL


def test_missing_program_is_refused(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SRC", tmp_path / "src")
    with pytest.raises(workloads.ProgramMissing):
        workloads.load_program()
