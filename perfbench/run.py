"""shorsim benchmark: one workload, one closed loop, one client, every op verified.

    python3 perfbench/run.py --workload full-small --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.  Times
are in reference seconds: each op's wall time divided by the host factor that
a fixed calibration kernel, timed after every op, reads off (calib.py), so
that the drift of a shared host's speed between runs cancels.
``--trace 1`` runs the same loop under the outside-in tracer (tracer.py) and
reports the per-layer metrics, then runs some of the same ops traced and
untraced back to back to give the tracing overhead.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Any op that
fails verification makes the exit code 1; a benchmark that cannot run (no
sources, a failed set-up check) exits 2.  Results, the environment and
(traced) the spans go to ``.bench_out/``.
"""

import argparse
import bisect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from itertools import chain, islice
from pathlib import Path

# One client, one thread.  Idle OpenBLAS workers spin; on a two-core machine
# the spinning worker competes with the loop and with the set-up probes,
# which inherit this setting.  Only the 4x4 two-qubit matmul uses BLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from calib import NEIGHBOURS, Calibration, host_factors  # noqa: E402
from tracer import Tracer, layer_metrics, op_closure_error, patch_table  # noqa: E402
from workloads import (  # noqa: E402
    OUT_DIR, SETUP_INPUTS, SRC, WORKLOADS, ProgramMissing, load_program,
)

SETUP_SAMPLES = 5    # set-ups per untraced run, each in a fresh process
MIN_OPS = 20         # enough for p50 to have ten samples beyond it
TAIL_BEYOND = 10
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
WARMUP_SEED = 0      # the warm-up op is the same for every workload seed
QFT_CHECK_TOL = 1e-12
SRC_MODULES = (
    "__init__", "circuit", "cli", "gates", "numtheory", "oracle", "qft",
    "selftest", "shor", "state",
)


class VerificationError(RuntimeError):
    pass


# -- statistics -------------------------------------------------------------

def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest of ``TAIL_PERCENTILES``
    whose nearest-rank value has at least ``TAIL_BEYOND`` samples strictly above it.

    Decade-spaced percentiles keep the choice fixed over a wide range of run
    lengths (p90 from 100 to 999 samples), so the reported tail does not
    switch percentile when a run completes a few more or fewer ops.
    """
    s = sorted(values)
    n = len(s)
    for pct in reversed(TAIL_PERCENTILES):
        value = s[max(math.ceil(pct / 100 * n), 1) - 1]
        beyond = n - bisect.bisect_right(s, value)
        if beyond >= TAIL_BEYOND:
            return value, pct, beyond
    raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")


# -- set-up -------------------------------------------------------------------

def check_qft(prog, seed: int) -> float:
    """Gate-ladder QFT of a width-10 period state against dft_reference and np.fft."""
    rng = np.random.default_rng([seed, 10])
    r = int(rng.integers(2, 64))
    x0 = int(rng.integers(0, r))
    state = prog.shor.build_period_state(10, x0, r)
    before = state.amplitudes.copy()
    prog.qft.apply_qft(state)
    # out[x] = 2**-5 * sum_y exp(+2 pi i x y / 1024) in[y], which is ifft * sqrt(1024).
    by_fft = np.fft.ifft(before) * np.sqrt(before.size)
    by_dft = prog.qft.dft_reference(before)
    err = max(np.max(np.abs(state.amplitudes - by_fft)), np.max(np.abs(state.amplitudes - by_dft)))
    if not err <= QFT_CHECK_TOL:
        raise VerificationError(f"QFT of period state (x0={x0}, r={r}) is off by {err:.3e}")
    return float(err)


def setup(workload, seed: int, out_dir: Path, qft_check: bool = True):
    """Import, QFT check, input generation and one warm-up op.

    Returns (prog, inputs, seconds).  The check's 1024 x 1024 DFT matrix
    raises the peak RSS by about 33 MiB, so the untraced run leaves it to the
    set-up probes, which run in their own processes.
    """
    t0 = time.perf_counter()
    prog = load_program()
    if qft_check:
        check_qft(prog, seed)
    gen = workload.inputs(seed, out_dir)
    inputs = chain(list(islice(gen, SETUP_INPUTS)), gen)
    warm = next(workload.inputs(WARMUP_SEED, out_dir / "warmup"))
    err = workload.verify(warm, workload.run(prog, warm))
    if err:
        raise VerificationError(f"warm-up op: {err}")
    seconds = time.perf_counter() - t0
    return prog, inputs, seconds


def probe_setups(workload_name: str, seed: int, count: int) -> list[tuple[float, float]]:
    """(wall seconds, host factor) of set-ups in ``count`` fresh interpreters, one after another."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise VerificationError(f"set-up probe failed: {proc.stderr.strip()}")
        wall, factor = proc.stdout.strip().splitlines()[-1].split()
        out.append((float(wall), float(factor)))
    return out


# -- the measured loop ----------------------------------------------------------

class Loop:
    """Closed loop, one client: the next op starts when the previous one ends."""

    def __init__(self, workload, prog, inputs, calibration=None):
        self.workload = workload
        self.prog = prog
        self.inputs = inputs
        self.calibration = calibration
        self.latencies: list[float] = []
        self.cal_s: list[float] = []   # kernel time after each verified op
        self.attempts: list[int] = []
        self.failures: list[str] = []
        self.done: list = []     # inputs in the order they ran

    def one(self, inp, tracer=None) -> None:
        w = self.workload
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = w.run(self.prog, inp)
                dt = time.perf_counter() - t0
            else:
                result, dt = tracer.run_op(len(self.done), w.run, self.prog, inp)
        except Exception:
            self.done.append(inp)
            self.failures.append(f"{inp}: {traceback.format_exc()}")
            return
        self.done.append(inp)
        cal = self.calibration.after(dt) if self.calibration is not None else None
        err = w.verify(inp, result)
        if err:
            self.failures.append(err)
            return
        self.latencies.append(dt)
        if cal is not None:
            self.cal_s.append(cal)
        self.attempts.append(w.attempts(result))

    def run(self, seconds: float, tracer=None) -> float:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds or len(self.done) < MIN_OPS:
            self.one(next(self.inputs), tracer)
        return time.perf_counter() - t0


# -- environment ------------------------------------------------------------------

def _blas_threads():
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _lscpu():
    info = {"cpu_model": None, "l2_bytes": None, "llc_bytes": None}
    try:
        model = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        caches = subprocess.run(["lscpu", "-C=NAME,ONE-SIZE", "-B"],
                                capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return info
    for line in model.splitlines():
        if line.startswith("Model name:"):
            info["cpu_model"] = line.split(":", 1)[1].strip()
    sizes = {}
    for line in caches.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 2 and parts[1].isdigit():
            sizes[parts[0]] = int(parts[1])
    info["l2_bytes"] = sizes.get("L2")
    levels = [k for k in sizes if k[1:].isdigit()]
    if levels:
        info["llc_bytes"] = sizes[max(levels, key=lambda k: int(k[1:]))]
    return info


def src_lines() -> dict[str, int]:
    pkg = SRC / "shorsim"
    counts = {}
    for mod in SRC_MODULES:
        path = pkg / f"{mod}.py"
        counts[mod] = len(path.read_text().splitlines()) if path.is_file() else 0
    counts["total"] = sum(len(p.read_text().splitlines()) for p in pkg.glob("*.py"))
    return counts


def environment(workload) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        **_lscpu(),
        "state_bytes": workload.state_bytes(),
        "src_lines": src_lines(),
    }


def _mib(b) -> str:
    return "?" if b is None else f"{b / 2**20:.3g} MiB"


def print_environment(env: dict) -> None:
    sb = env["state_bytes"]
    fits = ""
    if sb and env["l2_bytes"] and env["llc_bytes"]:
        fits = (f" = {sb / env['l2_bytes']:.2f} x L2 per core ({_mib(env['l2_bytes'])}),"
                f" {sb / env['llc_bytes']:.3f} x LLC ({_mib(env['llc_bytes'])})")
    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"{env['blas_threads']} BLAS threads, nproc {env['nproc']}, {env['cpu_model']}")
    print(f"env: largest state {_mib(sb)}{fits}")
    print(f"env: src lines {env['src_lines']['total']} "
          + " ".join(f"{k}={v}" for k, v in env["src_lines"].items() if k != "total"))


# -- reporting ----------------------------------------------------------------------

def emit(correct: bool, loop: Loop, metrics: dict, record: dict, path: Path) -> None:
    line = {
        "correct": correct,
        "attempted": len(loop.done),
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**record, "result": line}, indent=1) + "\n")
    print(json.dumps(line))


def end_to_end(loop: Loop, setups: list[tuple[float, float]], wall: float, args) -> dict:
    """End-to-end metrics, times in reference seconds (wall / host factor)."""
    raw = loop.latencies
    if len(raw) <= TAIL_BEYOND:
        raise VerificationError(f"only {len(raw)} verified ops, too few to report")
    factors = host_factors(loop.cal_s, loop.calibration)
    lat = [t / f for t, f in zip(raw, factors)]
    setup_raw = [t for t, _ in setups]
    setup_ref = [t / f for t, f in setups]
    value, pct, beyond = tail(lat)
    m = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (value, "s"),
        "attempts_per_op": (sum(loop.attempts) / len(loop.attempts), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    q = statistics.quantiles(factors, n=4) if len(factors) > 1 else factors * 3
    print(f"workload {args.workload} seed {args.seed}: {len(loop.done)} ops in "
          f"{wall:.2f} s, closed loop, one client")
    print(f"  host factor     {q[1]:.3f} median, {q[0]:.3f}-{q[2]:.3f} quartiles "
          f"(wall / reference time); times below in reference seconds, wall in brackets")
    print(f"  setup_s         {m['setup_s'][0]:.4f} s      median of {len(setups)} set-ups "
          f"[{statistics.median(setup_raw):.4f} s]")
    print(f"  ops_per_s       {m['ops_per_s'][0]:.4f} 1/s    verified ops per second of op time "
          f"[{len(raw) / sum(raw):.4f} 1/s]")
    print(f"  op_p50_s        {m['op_p50_s'][0]:.5f} s      [{statistics.median(raw):.5f} s]")
    print(f"  op_tail_s       {value:.5f} s      p{pct:g}, {beyond} of {len(lat)} ops beyond "
          f"[{tail(raw)[0]:.5f} s]")
    print(f"  fail_ratio      {len(loop.failures) / len(loop.done):.4f} ratio  "
          f"{len(loop.failures)} of {len(loop.done)} ops")
    note = "  one simulation per op" if args.workload == "circuit-mix" else ""
    print(f"  attempts_per_op {m['attempts_per_op'][0]:.4f} count{note}")
    print(f"  peak_rss_mb     {m['peak_rss_mb'][0]:.1f} MiB")
    return m


def overhead_ratio(loop: Loop, seconds: float) -> float:
    """Traced over untraced time of the loop's first ops, for a quarter of ``seconds``.

    Each op runs traced and untraced back to back, alternating which goes
    first, so a machine that speeds up or slows down during the run moves
    both sides alike.
    """
    w, prog = loop.workload, loop.prog
    probe = Tracer(patch_table(prog))
    spent = {True: 0.0, False: 0.0}
    t0 = time.perf_counter()
    for i, inp in enumerate(loop.done):
        if i and time.perf_counter() - t0 >= seconds / 4:
            break
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                with probe:
                    spent[True] += probe.run_op(i, w.run, prog, inp)[1]
                probe.spans.clear()
            else:
                start = time.perf_counter()
                w.run(prog, inp)
                spent[False] += time.perf_counter() - start
    return spent[True] / spent[False]


def traced(loop: Loop, tracer: Tracer, seconds: float, out_dir: Path, args) -> dict:
    """Per-layer metrics of the traced loop, and the tracing overhead."""
    spans = tracer.spans
    closure = op_closure_error(spans)
    if closure > 1e-9:
        raise VerificationError(f"self times of an op miss its traced wall time by {closure:.3e} s")
    m = layer_metrics(spans)
    m["trace.overhead_ratio"] = (overhead_ratio(loop, seconds), "ratio")
    for mod, n in src_lines().items():
        m[f"src_lines.{mod}"] = (float(n), "lines")
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    print(f"workload {args.workload} seed {args.seed}: traced {len(loop.done)} ops, "
          f"{len(spans)} spans -> {path.name}; per-op self-time closure {closure:.1e} s")
    for k, (v, u) in m.items():
        print(f"  {k:48s} {v:.6g} {u}")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("seed must be non-negative")
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        _, _, seconds = setup(workload, args.seed, OUT_DIR / "probe")
        calibration = Calibration(workload.state_bytes())
        factor = calibration.factor([calibration() for _ in range(2 * NEIGHBOURS + 1)])
        print(seconds, factor)
        return 0

    prog, inputs, _ = setup(workload, args.seed, OUT_DIR, qft_check=bool(args.trace))
    env = environment(workload)
    print_environment(env)
    loop = Loop(workload, prog, inputs,
                None if args.trace else Calibration(workload.state_bytes()))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    if args.trace:
        tracer = Tracer(patch_table(prog))
        originals = [(o, a, o.__dict__[a]) for o, a, _, _ in tracer.table]
        with tracer:
            loop.run(args.seconds, tracer)
        if any(o.__dict__[a] is not orig for o, a, orig in originals):
            raise VerificationError("the tracer left a patched attribute behind")
        metrics = traced(loop, tracer, args.seconds, OUT_DIR, args)
    else:
        setups = probe_setups(args.workload, args.seed, SETUP_SAMPLES)
        wall = loop.run(args.seconds)
        metrics = end_to_end(loop, setups, wall, args)
        record["latencies_s"] = loop.latencies
        record["calibration_s"] = loop.cal_s
        record["setups_s"] = setups
    for f in loop.failures:
        print(f"FAILED: {f}")
    correct = not loop.failures
    emit(correct, loop, metrics, record,
         OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ProgramMissing, VerificationError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
