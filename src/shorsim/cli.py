"""Command-line surface: factoring runs, distribution tables, circuit execution.

Exit codes: 0 success, 1 invalid input, 2 algorithmic failure.  All output is
CSV (header row, comma separated, 12 significant digits, newline terminated)
or plain text; identical command line and seed give byte-identical output.
"""

import argparse
import json
import sys

import numpy as np

from .circuit import Circuit, CircuitParseError
from .numtheory import U64_LIMIT
from .qft import apply_qft
from .shor import ShorConfig, build_period_state, run_shor
from .state import DEFAULT_MAX_QUBITS, basis_state, sample_indices

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_FAILED = 2


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


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
    if n < 3 or n >= U64_LIMIT:
        print(f"cannot factor {n}: need 3 <= N < 2**64", file=sys.stderr)
        return EXIT_INVALID
    try:
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
    except ValueError as exc:
        # config validation and the prime pre-check (Miller-Rabin) land here
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID

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
    try:
        state = build_period_state(args.n, args.x0, args.r, max_qubits=args.max_qubits)
        if args.stage == "after":
            apply_qft(state)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    rows = ["index,probability"]
    for i, p in enumerate(state.probabilities()):
        rows.append(f"{i},{_fmt(float(p))}")
    _write_text(args.out, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_circuit_run(args) -> int:
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    try:
        circuit = Circuit.parse(text)
    except CircuitParseError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    if not 0 <= args.init < (1 << circuit.width):
        print(
            f"initial state {args.init} out of range for width {circuit.width}",
            file=sys.stderr,
        )
        return EXIT_INVALID
    if args.shots < 1:
        print(f"shots must be at least 1, got {args.shots}", file=sys.stderr)
        return EXIT_INVALID
    if args.seed < 0:
        print(f"seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_INVALID

    # One simulation gives the output distribution; each shot is an
    # independent inverse-CDF draw from it, exactly as if the state were
    # re-prepared and measured afresh.
    state = circuit.run(basis_state(circuit.width, args.init))
    rng = np.random.default_rng(args.seed)
    draws = sample_indices(state.probabilities(), rng.random(args.shots))
    counts = np.bincount(draws, minlength=1 << circuit.width)

    rows = ["outcome,count"]
    for outcome in np.flatnonzero(counts):
        rows.append(f"{outcome},{counts[outcome]}")
    _write_text(args.out, "\n".join(rows) + "\n")
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
    p.add_argument("--mode", choices=["full", "hybrid", "classical"], default="full")
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
