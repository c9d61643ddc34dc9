"""Command-line surface: output formats, exit codes, determinism."""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shorsim
from shorsim import Circuit, numtheory, selftest
from shorsim import circuit as circ
from shorsim.cli import MAX_SHOTS, main
from shorsim.state import basis_state, sample_indices

from conftest import patched_ladder, traced_peak

BELL_FILE = "qubits 2\nH 0\nCNOT 0 1\n"


def read_csv(path):
    lines = path.read_text().splitlines()
    header, rows = lines[0], [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestFactor:
    def test_factors_15(self, capsys):
        assert main(["factor", "15", "--seed", "42"]) == 0
        assert capsys.readouterr().out == "15 = 3 x 5\n"

    def test_prime_input_exit_1(self, capsys):
        assert main(["factor", "13"]) == 1
        assert "13 is prime" in capsys.readouterr().err

    def test_classical_worked_instance(self, capsys):
        assert main(["factor", "12827", "--mode", "classical"]) == 0
        assert capsys.readouterr().out == "12827 = 101 x 127\n"

    def test_exhausted_runs_exit_2(self, capsys):
        assert main(["factor", "15", "--base", "14", "--mode", "classical",
                     "--max-runs", "2"]) == 2
        assert "failed to factor 15" in capsys.readouterr().err

    def test_classical_40_bit_semiprime(self, capsys):
        assert main(["factor", "1000036000099", "--mode", "classical"]) == 0
        assert capsys.readouterr().out == "1000036000099 = 1000003 x 1000033\n"

    def test_order_search_budget_exit_2(self, monkeypatch, capsys):
        # 16 table entries reach orders up to 256; 2 has order 700 mod 12827
        monkeypatch.setattr(numtheory, "MAX_BABY_STEPS", 16)
        assert main(["factor", "12827", "--base", "2", "--mode", "classical"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "order search budget of 16" in err

    def test_base_draw_above_int64(self, monkeypatch, capsys):
        # 4294967291 x 4294967279 >= 2**63: the random base is drawn past int64,
        # then a 16-entry order budget ends the search with exit 2
        monkeypatch.setattr(numtheory, "MAX_BABY_STEPS", 16)
        assert main(["factor", "18446743979220271189", "--mode", "classical"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "order search budget of 16" in err

    @pytest.mark.parametrize("mode", ["full", "hybrid"])
    @pytest.mark.parametrize("width", ["0", "-1", "-2"])
    def test_nonpositive_qubits_exit_1(self, capsys, mode, width):
        assert main(["factor", "15", "--mode", mode, "--qubits", width]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input-register width must be at least 1, got {width}\n"

    def test_too_small_exit_1(self, capsys):
        assert main(["factor", "2"]) == 1
        assert "cannot factor" in capsys.readouterr().err

    def test_transcript_schema(self, tmp_path, capsys):
        out = tmp_path / "runs.json"
        assert main(["factor", "21", "--seed", "1", "--transcript", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["n"] == 21
        assert payload["factors"] == [3, 7]
        assert payload["gate_estimate"] > 0
        assert payload["runs"], "transcript must list the runs"
        for run in payload["runs"]:
            assert set(run) == {
                "a", "register_width", "y", "f_outcome", "convergents",
                "candidate_r", "status",
            }

    def test_transcript_reports_the_hybrid_fallback(self, tmp_path, capsys):
        # 15 + 8 qubits exceed the cap, so full mode falls back to hybrid
        out = tmp_path / "runs.json"
        assert main(["factor", "143", "--seed", "1", "--max-qubits", "20",
                     "--transcript", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["mode"] == "hybrid"
        assert all(run["f_outcome"] is None for run in payload["runs"])

    def test_hybrid_register_narrower_than_the_order(self, capsys):
        # most bases below 21 have order 6 > 2**2; full mode runs the same width
        for seed in range(30):
            assert main(["factor", "21", "--mode", "hybrid", "--qubits", "2", "--seed", str(seed)]) == 0

    def test_hybrid_flag(self, capsys):
        assert main(["factor", "35", "--mode", "hybrid", "--seed", "3"]) == 0
        assert capsys.readouterr().out == "35 = 5 x 7\n"

    def test_huge_max_runs_exits_1_before_any_run(self, capsys):
        assert main(["factor", "15", "--max-runs", "1000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "max_runs" in captured.err

    def test_bad_config_values_exit_1(self, capsys):
        assert main(["factor", "15", "--max-runs", "0"]) == 1
        assert "max_runs" in capsys.readouterr().err
        assert main(["factor", "15", "--seed", "-4"]) == 1
        assert "seed" in capsys.readouterr().err
        assert main(["factor", "15", "--base", "15"]) == 1
        assert "base" in capsys.readouterr().err


class TestQftDemo:
    def test_before_stage_nine_uniform_rows(self, tmp_path):
        out = tmp_path / "before.csv"
        assert main(["qft-demo", "--n", "6", "--x0", "4", "--r", "7",
                     "--stage", "before", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == "index,probability"
        assert len(rows) == 64
        nonzero = [(int(i), float(p)) for i, p in rows if float(p) > 0]
        assert [i for i, _ in nonzero] == list(range(4, 64, 7))
        assert all(abs(p - 1 / 9) < 1e-12 for _, p in nonzero)

    def test_after_stage_tallest_line(self, tmp_path):
        out = tmp_path / "after.csv"
        assert main(["qft-demo", "--n", "6", "--x0", "4", "--r", "7",
                     "--stage", "after", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        probs = {int(i): float(p) for i, p in rows}
        assert probs[0] == pytest.approx(81 / 576, abs=1e-9)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-6)

    def test_uniform_input_transforms_to_zero(self, tmp_path):
        out = tmp_path / "u.csv"
        assert main(["qft-demo", "--n", "4", "--x0", "0", "--r", "1",
                     "--stage", "after", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        probs = {int(i): float(p) for i, p in rows}
        assert probs[0] == pytest.approx(1.0, abs=1e-9)

    def test_invalid_geometry_exit_1(self, capsys):
        assert main(["qft-demo", "--n", "4", "--x0", "7", "--r", "7",
                     "--stage", "before"]) == 1
        assert "x0" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["before", "after"])
    def test_zero_qubit_register_is_one_row(self, stage, capsys):
        # the transform of one amplitude is the identity
        assert main(["qft-demo", "--n", "0", "--x0", "0", "--r", "1", "--stage", stage]) == 0
        assert capsys.readouterr().out == "index,probability\n0,1\n"

    def test_stdout_default(self, capsys):
        assert main(["qft-demo", "--n", "2", "--x0", "0", "--r", "2",
                     "--stage", "before"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("index,probability\n")
        assert out.endswith("\n")


class TestCircuitRun:
    def test_bell_histogram(self, tmp_path):
        f = tmp_path / "bell.txt"
        f.write_text(BELL_FILE)
        out = tmp_path / "hist.csv"
        assert main(["circuit", "run", str(f), "--shots", "10000",
                     "--seed", "7", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == "outcome,count"
        counts = {int(o): int(c) for o, c in rows}
        assert set(counts) == {0, 3}
        assert 4700 <= counts[0] <= 5300
        assert 4700 <= counts[3] <= 5300
        assert sum(counts.values()) == 10000

    def test_empty_circuit_all_counts_on_init(self, tmp_path):
        f = tmp_path / "idle.txt"
        f.write_text("qubits 3\n")
        out = tmp_path / "hist.csv"
        assert main(["circuit", "run", str(f), "--init", "5", "--shots", "50",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows == [["5", "50"]]

    def test_many_shots_counted_in_blocks(self, tmp_path):
        # 3M shots drawn at once would hold 48 MiB of variates and indices
        f = tmp_path / "bell.txt"
        f.write_text(BELL_FILE)
        out = tmp_path / "hist.csv"
        shots = 3_000_000
        with traced_peak() as peak:
            assert main(["circuit", "run", str(f), "--shots", str(shots),
                         "--seed", "7", "--out", str(out)]) == 0
        assert peak.bytes < 4 << 20
        probs = Circuit.parse(BELL_FILE).run(basis_state(2, 0)).probabilities()
        draws = sample_indices(probs, np.random.default_rng(7).random(shots))
        counts = np.bincount(draws, minlength=4)
        assert read_csv(out)[1] == [["0", str(counts[0])], ["3", str(counts[3])]]

    def test_blocks_draw_what_one_array_draws(self, tmp_path):
        # four unequal outcomes, and a last block shorter than the others
        f = tmp_path / "skew.txt"
        f.write_text("qubits 2\nU2 0 0.6 0 0.8 0 -0.8 0 0.6 0\nU2 1 0.28 0 0.96 0 0.96 0 -0.28 0\n")
        out = tmp_path / "hist.csv"
        shots = (1 << 17) + 12345
        assert main(["circuit", "run", str(f), "--shots", str(shots), "--seed", "11", "--out", str(out)]) == 0
        probs = Circuit.parse(f.read_text()).run(basis_state(2, 0)).probabilities()
        counts = np.bincount(sample_indices(probs, np.random.default_rng(11).random(shots)), minlength=4)
        assert np.count_nonzero(counts) == 4
        rows = "".join(f"{o},{c}\n" for o, c in enumerate(counts))
        assert out.read_text() == "outcome,count\n" + rows

    def test_malformed_line_reports_position(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("H 0\nCNOT 0\n")
        assert main(["circuit", "run", str(f)]) == 1
        assert "line 2: expected 2 qubit arguments" in capsys.readouterr().err

    def test_init_out_of_range(self, tmp_path, capsys):
        f = tmp_path / "bell.txt"
        f.write_text(BELL_FILE)
        assert main(["circuit", "run", str(f), "--init", "4"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["circuit", "run", "no-such-file.txt"]) == 1

    def test_bad_shot_and_seed_values_exit_1(self, tmp_path, capsys):
        f = tmp_path / "bell.txt"
        f.write_text(BELL_FILE)
        assert main(["circuit", "run", str(f), "--shots", "0"]) == 1
        assert "shots" in capsys.readouterr().err
        assert main(["circuit", "run", str(f), "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_shots_over_the_cap_exit_before_simulating(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "bell.txt"
        f.write_text(BELL_FILE)
        monkeypatch.setattr(Circuit, "run", lambda *a: pytest.fail("simulated"))
        for shots in (MAX_SHOTS + 1, 10**12):
            assert main(["circuit", "run", str(f), "--shots", str(shots)]) == 1
            assert f"[1, {MAX_SHOTS}]" in capsys.readouterr().err


def _circuit_file(tmp_path, content: bytes):
    f = tmp_path / "c.txt"
    f.write_bytes(content)
    return str(f)


# Each of these once escaped main as a traceback; main now maps it to exit 1.
ESCAPED_FAILURES = {
    "register-over-cap": (
        lambda d: ["circuit", "run", _circuit_file(d, b"qubits 40\n")], "40 qubits"),
    "circuit-not-utf8": (
        lambda d: ["circuit", "run", _circuit_file(d, b"H 0\n\xff\xfe\n")], "codec"),
    "qft-demo-out-missing-dir": (
        lambda d: ["qft-demo", "--n", "3", "--x0", "0", "--r", "2", "--stage", "after",
                   "--out", str(d / "missing" / "x.csv")], "No such file"),
    "circuit-out-missing-dir": (
        lambda d: ["circuit", "run", _circuit_file(d, BELL_FILE.encode()),
                   "--out", str(d / "missing" / "h.csv")], "No such file"),
    "transcript-missing-dir": (
        lambda d: ["factor", "15", "--transcript", str(d / "missing" / "t.json")],
        "No such file"),
}


@pytest.mark.parametrize("case", sorted(ESCAPED_FAILURES))
def test_escaped_failure_exits_1(tmp_path, capsys, case):
    argv, cause = ESCAPED_FAILURES[case]
    assert main(argv(tmp_path)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and cause in err


@pytest.mark.parametrize("argv", [["factor", "abc"], ["factor", "15", "--mode", "bogus"], []])
def test_usage_error_exits_1(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: shorsim")


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: shorsim")


HUGE_WIDTHS = {
    "qft-demo": lambda d: ["qft-demo", "--n", "200000000", "--x0", "0", "--r", "1",
                           "--stage", "after"],
    "circuit-header": lambda d: ["circuit", "run", _circuit_file(d, b"qubits 200000000\n")],
    "circuit-inferred": lambda d: ["circuit", "run", _circuit_file(d, b"X 199999999\n")],
}


@pytest.mark.parametrize("case", sorted(HUGE_WIDTHS))
def test_huge_width_rejected_before_allocating(tmp_path, capsys, case):
    argv = HUGE_WIDTHS[case](tmp_path)
    with traced_peak() as peak:
        code = main(argv)
    assert code == 1
    assert peak.bytes < 1 << 20
    err = capsys.readouterr().err
    assert err == ("200000000 qubits would need 2**200000000 amplitudes (2**200000004 bytes); "
                   "cap is 30 qubits (pass max_qubits to override)\n")


@pytest.mark.parametrize("line,error", [
    ("U2 0 1e308 1e308 0 0 0 0 1 0", "line 2: matrix is not unitary (max defect nan)"),
    ("U2 0 1 inf 0 0 0 0 1 0", "line 2: gate matrix must be finite"),
], ids=["defect-overflows", "infinite-imaginary"])
def test_overflowing_matrix_is_one_stderr_line(tmp_path, line, error):
    # a child process, so numpy warnings reach stderr as they do for a user
    f = tmp_path / "big.txt"
    f.write_text(f"qubits 2\n{line}\n")
    src = str(Path(shorsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "shorsim.cli", "circuit", "run", str(f)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [error]


# -- fuzz of main over circuit run and qft-demo --------------------------------
# basis_state is capped at 12 qubits and qft-demo gets --max-qubits 12, so no
# generated input allocates more than 2**12 amplitudes (64 KiB); --shots stays
# at or below 2000 because each shot draws an 8-byte variate.

FUZZ_CAP = 12
_qubit = st.integers(-2, FUZZ_CAP + 1).map(str)
_number = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "nan", "inf", "-inf", "1e308"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


def _line(name, n_qubits, n_nums):
    return st.tuples(st.lists(_qubit, min_size=n_qubits, max_size=n_qubits),
                     st.lists(_number, min_size=n_nums, max_size=n_nums)).map(
        lambda qn: " ".join([name, *qn[0], *qn[1]]))


_circuit_line = st.one_of(
    st.integers(0, 40).map(lambda w: f"qubits {w}"),
    _line("H", 1, 0), _line("X", 1, 0), _line("PHASE", 1, 1), _line("CNOT", 2, 0),
    _line("CCNOT", 3, 0), _line("CPHASE", 2, 1), _line("U2", 1, 8), _line("U4", 2, 32),
)
_circuit_text = st.one_of(
    st.lists(_circuit_line, max_size=8).map(lambda ls: "\n".join(ls).encode()),
    st.binary(max_size=64),
)


def _fuzz_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == "" and err.getvalue() != ""


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(text=_circuit_text, init=st.integers(-2, 5000), shots=st.integers(0, 2000),
       seed=st.integers(-2, 2**32))
def test_fuzz_circuit_run(fuzz_dir, text, init, shots, seed):
    path = _circuit_file(fuzz_dir, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("shorsim.cli.basis_state", functools.partial(basis_state, max_qubits=FUZZ_CAP))
        _fuzz_main(["circuit", "run", path, "--init", str(init),
                    "--shots", str(shots), "--seed", str(seed)])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(-2, 40), x0=st.integers(-2, 2**41), r=st.integers(-2, 2**41),
       stage=st.sampled_from(["before", "after"]))
def test_fuzz_qft_demo(n, x0, r, stage):
    _fuzz_main(["qft-demo", "--n", str(n), "--x0", str(x0), "--r", str(r),
                "--stage", stage, "--max-qubits", str(FUZZ_CAP)])


class TestDeterminism:
    def test_identical_seed_byte_identical_output(self, tmp_path):
        f = tmp_path / "bell.txt"
        f.write_text(BELL_FILE)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert main(["circuit", "run", str(f), "--shots", "500",
                         "--seed", "3", "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

        demos = [tmp_path / "d1.csv", tmp_path / "d2.csv"]
        for p in demos:
            assert main(["qft-demo", "--n", "5", "--x0", "2", "--r", "6",
                         "--stage", "after", "--out", str(p)]) == 0
        assert demos[0].read_bytes() == demos[1].read_bytes()


class TestSelftest:
    def test_cheap_criteria_pass_and_print_table(self, capsys):
        results = selftest.run_all(verbose=True, only=[2, 4])
        out = capsys.readouterr().out
        assert all(r.passed for r in results)
        assert "period-state-geometry" in out
        assert "PASS" in out

    def test_corrupted_transform_angle_names_failed_criterion(self):
        def corrupted(ops):
            i = next(i for i, op in enumerate(ops) if op.name == "CPHASE")
            op = ops[i]  # detune one controlled-phase angle
            return (*ops[:i], circ.cphase(min(op.controls), op.targets[0], op.angle * 1.07), *ops[i + 1 :])

        with patched_ladder(corrupted):
            results = selftest.run_all(only=[1])
        assert not results[0].passed
        assert results[0].name == "period-7-transform-peaks"

    def test_exit_code_logic_matches_pass_flags(self, monkeypatch):
        def fixed(*flags):
            return lambda **kwargs: [
                selftest.CriterionResult(i, f"c{i}", passed, "", 0.0)
                for i, passed in enumerate(flags, 1)
            ]

        monkeypatch.setattr(selftest, "run_all", fixed(True, True))
        assert main(["selftest"]) == 0
        monkeypatch.setattr(selftest, "run_all", fixed(True, False))
        assert main(["selftest"]) == 2
