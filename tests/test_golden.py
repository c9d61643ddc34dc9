"""Byte-for-byte CLI outputs and ``run_shor`` draws at fixed seeds, frozen under ``tests/golden/``.

The files were captured before the state layer was rewritten and must never
be regenerated to make a change pass: a refactor that moves one of them has
changed behaviour.  If a different rounding order moves a sample across a CDF
boundary, find the op and the boundary that moved it instead of re-seeding.
"""

import json
from pathlib import Path

import pytest

from shorsim import ShorConfig, run_shor
from shorsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (golden file, argv); the CLI writes its output to the path that replaces OUT.
OUT = "{out}"
CASES = [
    ("factor-15-seed0.json", ["factor", "15", "--seed", "0", "--transcript", OUT]),
    ("factor-21-seed1.json", ["factor", "21", "--seed", "1", "--transcript", OUT]),
    ("factor-35-seed1.json", ["factor", "35", "--seed", "1", "--transcript", OUT]),
    ("factor-143-hybrid.json", ["factor", "143", "--mode", "hybrid", "--transcript", OUT]),
    ("factor-12827-classical.json",
     ["factor", "12827", "--mode", "classical", "--transcript", OUT]),
    ("qft-demo-n10-x3-r37-after.csv",
     ["qft-demo", "--n", "10", "--x0", "3", "--r", "37", "--stage", "after", "--out", OUT]),
    ("circuit-every-op-4096.csv",
     ["circuit", "run", str(GOLDEN / "every_op.circuit"), "--shots", "4096", "--out", OUT]),
    # odd, no-candidate x2, odd, trivial, no-candidate, found: fresh bases and retried ones
    ("factor-21-seed11.json", ["factor", "21", "--seed", "11", "--transcript", OUT]),
    # odd, trivial x3, no-candidate, found, at 20 qubits
    ("factor-69-seed6.json", ["factor", "69", "--seed", "6", "--transcript", OUT]),
    # full mode over the qubit cap falls back to hybrid
    ("factor-143-seed1-max20.json",
     ["factor", "143", "--seed", "1", "--max-qubits", "20", "--transcript", OUT]),
    ("factor-35-seed1-no-f.json",
     ["factor", "35", "--seed", "1", "--skip-f-measurement", "--transcript", OUT]),
    ("factor-35-seed1-q8.json", ["factor", "35", "--seed", "1", "--qubits", "8", "--transcript", OUT]),
]


# odd composites below 100 that are not prime powers, so each call reaches the attempt loop
DRAW_MODULI = [15, 21, 33, 35, 39, 45, 51, 55, 57, 63, 65, 69, 75, 77, 85, 87, 91, 93, 95, 99]
# (mode, measure_f, moduli): the QFT on the joint register makes measure_f=False
# take 12 s over all of them against 0.6 s below 64 (at most 18 qubits)
DRAW_RUNS = [
    ("full", True, DRAW_MODULI),
    ("full", False, [n for n in DRAW_MODULI if n < 64]),
    ("hybrid", True, DRAW_MODULI),
]


def draw_sweep() -> str:
    """``run_shor``'s factors and each attempt's (a, f_outcome, y, status), one call a line.

    Full mode with and without the output measurement and hybrid mode, seeds
    0-4: every kind of measurement the two modes make, top-register and
    bottom-register sub-register draws and whole-register ones, so a sampler's
    rounding drift reads as a diff of the draws it moved.
    """
    calls = []
    for mode, measure_f, moduli in DRAW_RUNS:
        for n in moduli:
            for seed in range(5):
                result = run_shor(ShorConfig(n, seed=seed, mode=mode, measure_f=measure_f))
                runs = [[r.a, r.f_outcome, r.y, r.status] for r in result.runs]
                calls.append({"mode": mode, "measure_f": measure_f, "n": n, "seed": seed,
                              "factors": result.factors, "runs": runs})
    return "[\n" + ",\n".join(json.dumps(call) for call in calls) + "\n]\n"


def run_case(argv, out: Path) -> bytes:
    assert main([str(out) if a == OUT else a for a in argv]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(name, argv, tmp_path):
    assert run_case(argv, tmp_path / name) == (GOLDEN / name).read_bytes()


def test_draws_match_golden():
    assert draw_sweep() == (GOLDEN / "draws-full-hybrid.json").read_text()
