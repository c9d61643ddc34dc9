"""Command-line surface: factoring runs, distribution tables, circuit execution.

Exit codes: 0 success, 1 invalid input, 2 algorithmic failure, including an
order search past its work budget.  Exit codes are mapped in ``main`` only:
commands raise, and ``main`` prints the exception as one line on stderr.  A
command line argparse rejects is invalid input too: its usage line and error
go to stderr and ``main`` returns 1; ``--help`` returns 0.  All
output is CSV (header row, comma separated, 12 significant digits, newline
terminated) or plain text; identical command line and seed give byte-identical
output.
"""

import argparse
import contextlib
import json
import sys

import numpy as np

from .circuit import Circuit
from .numtheory import OrderSearchBudgetExceeded
from .qft import apply_qft
from .shor import MODES, ShorConfig, build_period_state, run_shor
from .state import DEFAULT_MAX_QUBITS, basis_state, draw_indices

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_FAILED = 2

# Cap on ``circuit run --shots``.  Shots are drawn and counted in blocks at
# 45-212 ns each (4 and 16 qubits, uniform outcomes), so a capped run samples
# for at most about 20 s; 10**12 shots would run for 12-59 hours.
MAX_SHOTS = 10**8


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _write_text(path: str | None, header: str, keys, values: np.ndarray, fmt) -> None:
    """Write the CSV ``header``, then a row ``key,fmt(value)`` per pair, to stdout
    when ``path`` is None or "-".  Rows are formatted and written 2**12 at a time,
    so the text held in memory is one block however long the table is."""
    step = 1 << 12  # about 0.55 MiB of text; larger blocks hold more and write no faster
    with contextlib.nullcontext(sys.stdout) if path in (None, "-") else open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(values), step):
            rows = zip(keys[start : start + step], values[start : start + step].tolist())
            fh.write("".join(f"{k},{fmt(v)}\n" for k, v in rows))


def _transcript_payload(result, config: ShorConfig) -> dict:
    return {
        "n": result.n_to_factor,
        # the fallback may have run hybrid where full was asked for
        "mode": result.runs[-1].mode if result.runs else config.mode,
        "seed": config.seed,
        "factors": list(result.factors) if result.factors else None,
        "gate_estimate": result.gate_estimate,
        "runs": [
            {
                "a": r.a,
                "register_width": r.n,
                "y": r.y,
                "f_outcome": r.f_outcome,
                "convergents": [[c.p, c.q] for c in r.convergents],
                "candidate_r": r.candidate_r,
                "status": r.status,
            }
            for r in result.runs
        ],
    }


def cmd_factor(args) -> int:
    n = args.n
    config = ShorConfig(
        n,
        base=args.base,
        n_override=args.qubits,
        max_runs=args.max_runs,
        seed=args.seed,
        mode=args.mode,
        measure_f=not args.skip_f_measurement,
        max_qubits=args.max_qubits,
    )
    result = run_shor(config)

    if args.transcript:
        with open(args.transcript, "w") as fh:
            json.dump(_transcript_payload(result, config), fh, indent=2)
            fh.write("\n")

    if result.success:
        p, q = result.factors
        print(f"{n} = {p} x {q}")
        return EXIT_OK
    print(f"failed to factor {n} after {len(result.runs)} runs", file=sys.stderr)
    return EXIT_FAILED


def cmd_qft_demo(args) -> int:
    state = build_period_state(args.n, args.x0, args.r, max_qubits=args.max_qubits)
    if args.stage == "after":
        apply_qft(state)
    probs = state.probabilities()
    _write_text(args.out, "index,probability", range(len(probs)), probs, _fmt)
    return EXIT_OK


def cmd_circuit_run(args) -> int:
    with open(args.file) as fh:
        circuit = Circuit.parse(fh.read())
    if not 1 <= args.shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in [1, {MAX_SHOTS}], got {args.shots}")
    if args.seed < 0:
        raise ValueError(f"seed must be non-negative, got {args.seed}")

    # One simulation gives the output distribution; each shot is an
    # independent inverse-CDF draw from it, exactly as if the state were
    # re-prepared and measured afresh.  Shots are drawn and counted in blocks,
    # so memory does not grow with their number; the generator yields the
    # same variates however the draws are split, and the CDF is built once.
    state = circuit.run(basis_state(circuit.width, args.init))
    rng = np.random.default_rng(args.seed)
    cdf = np.cumsum(state.probabilities())
    counts = np.zeros(cdf.size, dtype=np.int64)
    block = max(cdf.size, 1 << 16)
    for start in range(0, args.shots, block):
        draws = draw_indices(cdf, rng.random(min(block, args.shots - start)))
        counts += np.bincount(draws, minlength=cdf.size)

    outcomes = np.flatnonzero(counts)
    _write_text(args.out, "outcome,count", outcomes, counts[outcomes], str)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import selftest

    results = selftest.run_all(verbose=True)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shorsim",
        description="Desk-scale state-vector simulator and factoring pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor an integer by order finding")
    p.add_argument("n", type=int, help="integer to factor (>= 3)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--base", type=int, default=None, help="force the base a")
    p.add_argument("--max-runs", type=int, default=25)
    p.add_argument("--qubits", type=int, default=None, help="input-register width override")
    p.add_argument("--transcript", default=None, help="write a JSON run transcript here")
    p.add_argument("--skip-f-measurement", action="store_true",
                   help="do not measure the output register mid-run")
    p.add_argument("--max-qubits", type=int, default=DEFAULT_MAX_QUBITS)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("qft-demo", help="probability table of a period state, before or after the transform")
    p.add_argument("--n", type=int, required=True, help="register width in qubits")
    p.add_argument("--x0", type=int, required=True, help="offset of the period state")
    p.add_argument("--r", type=int, required=True, help="period of the state")
    p.add_argument("--stage", choices=["before", "after"], required=True)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--max-qubits", type=int, default=DEFAULT_MAX_QUBITS)
    p.set_defaults(func=cmd_qft_demo)

    p = sub.add_parser("circuit", help="circuit-file operations")
    csub = p.add_subparsers(dest="circuit_command", required=True)
    pr = csub.add_parser("run", help="run a circuit file and histogram measurements")
    pr.add_argument("file", help="circuit text file")
    pr.add_argument("--init", type=int, default=0, help="initial basis state (default 0)")
    pr.add_argument("--shots", type=int, default=1024)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", default=None, help="CSV output path (default stdout)")
    pr.set_defaults(func=cmd_circuit_run)

    p = sub.add_parser("selftest", help="run the acceptance checks and print a table")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 after printing a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    try:
        return args.func(args)
    except OrderSearchBudgetExceeded as exc:
        print(exc, file=sys.stderr)
        return EXIT_FAILED
    except (ValueError, OSError) as exc:
        # ValueError covers CircuitParseError and UnicodeDecodeError
        print(exc, file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
