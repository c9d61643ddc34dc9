"""Byte-for-byte CLI outputs at fixed seeds, frozen under ``tests/golden/``.

The files were captured before the state layer was rewritten and must never
be regenerated to make a change pass: a refactor that moves one of them has
changed behaviour.  If a different rounding order moves a sample across a CDF
boundary, find the op and the boundary that moved it instead of re-seeding.
"""

from pathlib import Path

import pytest

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


def run_case(argv, out: Path) -> bytes:
    assert main([str(out) if a == OUT else a for a in argv]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(name, argv, tmp_path):
    assert run_case(argv, tmp_path / name) == (GOLDEN / name).read_bytes()
