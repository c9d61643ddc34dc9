"""Command-line surface: output formats, exit codes, determinism."""

import json

import pytest

import shorsim.qft as qft_mod
from shorsim import selftest
from shorsim.cli import main

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

    def test_hybrid_flag(self, capsys):
        assert main(["factor", "35", "--mode", "hybrid", "--seed", "3"]) == 0
        assert capsys.readouterr().out == "35 = 5 x 7\n"

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

    def test_corrupted_transform_angle_names_failed_criterion(self, monkeypatch):
        true_builder = qft_mod.qft_circuit

        def corrupted(n):
            from shorsim import circuit as circ

            c = true_builder(n)
            for i, op in enumerate(c.ops):
                if op.name == "CPHASE":  # detune one controlled-phase angle
                    c.ops[i] = circ.cphase(min(op.controls), op.target, op.angle * 1.07)
                    break
            return c

        monkeypatch.setattr(qft_mod, "qft_circuit", corrupted)
        results = selftest.run_all(only=[1])
        assert not results[0].passed
        assert results[0].name == "period-7-transform-peaks"

    def test_exit_code_logic_matches_pass_flags(self):
        results = selftest.run_all(only=[2])
        assert (0 if all(r.passed for r in results) else 2) == 0
