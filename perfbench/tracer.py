"""Outside-in tracer: spans around shorsim's public functions, from the benchmark.

The tracer replaces each traced function where its caller looks it up (the
``shorsim.shor`` namespace for the names that module imports, the class for
methods) with a wrapper that records a span, and puts every original back on
``uninstall``.  Nothing in the package changes.

A span is ``[name, start, end, parent, op, qty]``: ``parent`` is the index of
the enclosing span (-1 for an op's root span), ``op`` the op id shared by all
spans of one op, and ``qty`` a per-call count (amplitudes touched, ops run,
table entries, or 1/0 for a hit).  Spans stay in memory until the run ends.
"""

import functools
import time

NAME, START, END, PARENT, OP, QTY = range(6)

STATE_KERNELS = (
    "apply_single", "apply_controlled", "apply_two_qubit",
    "apply_permutation", "measure_subregister", "measure_all",
)
NUMTHEORY = (
    "multiplicative_order", "recover_period", "continued_fraction_convergents",
    "is_probable_prime", "factor_from_period",
)
STAGES = (
    "hadamard", "oracle_build", "oracle_apply", "measure_f", "qft",
    "measure_y", "recover", "period_state", "order",
)
RUN_ONCE = ("shor.run_once_full", "shor.run_once_hybrid", "shor.run_once_classical")


def _amps(args, out):
    return args[0].amplitudes.size


def _found(args, out):
    return int(out is not None)


def _period_found(args, out):
    return int(out.candidate_r is not None)


def _lucky(args, out):
    return int(bool(out.runs) and out.runs[-1].status == "lucky-gcd")


def patch_table(prog):
    """(owner, attribute, span name, qty function) for every traced entry point."""
    shor, st = prog.shor, prog.state.QuantumState
    table = [(st, k, f"state.{k}", _amps) for k in STATE_KERNELS]
    table += [
        (prog.gates.Gate2, "__init__", "gates.construct", None),
        (prog.gates.Gate4, "__init__", "gates.construct", None),
        (prog.circuit.Circuit, "run", "circuit.run", lambda a, o: len(a[0].ops)),
        (prog.circuit.Circuit, "embedded", "circuit.embedded", None),
        (prog.circuit.Circuit, "parse", "circuit.parse", None),
        (prog.qft, "qft_circuit", "qft.qft_circuit", None),
        (shor, "qft_circuit", "qft.qft_circuit", None),
        (shor, "apply_qft_on", "qft.apply_qft_on", None),
        (shor, "modexp_oracle", "oracle.modexp_oracle", lambda a, o: o.table.size),
        (prog.numtheory, "continued_fraction_convergents",
         "numtheory.continued_fraction_convergents", None),
        (shor, "build_period_state", "shor.build_period_state", None),
        (shor, "run_shor", "shor.run_shor", _lucky),
        (shor, "run_once_full", "shor.run_once_full", _period_found),
        (shor, "run_once_hybrid", "shor.run_once_hybrid", _period_found),
        (shor, "run_once_classical", "shor.run_once_classical", _period_found),
        (prog.cli, "main", "cli.main", None),
        (prog.cli, "cmd_circuit_run", "cli.circuit_run", None),
    ]
    qty = {"recover_period": _found}
    table += [(shor, k, f"numtheory.{k}", qty.get(k)) for k in NUMTHEORY]
    return table


class Tracer:
    """Records spans while installed; ``uninstall`` restores every original."""

    def __init__(self, table):
        self.table = table
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, qty):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if qty is not None:
                rec[QTY] = qty(args, out)
            return out

        return traced

    def install(self) -> None:
        for owner, attr, name, qty in self.table:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, qty))
            else:
                wrapped = self._wrap(original, name, qty)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` inside the root span of op ``op_id``; return (result, seconds)."""
        self.op = op_id
        rec = ["op", 0.0, 0.0, -1, op_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
        return out, rec[END] - rec[START]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest without overlap, so each child interval is
    subtracted exactly once, from its own parent; the self times of an op's
    spans then add up to the duration of its root span.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _stage(span, parent, qft_done) -> str | None:
    """The pipeline stage a span's whole duration belongs to, from its parentage."""
    name, pname = span[NAME], parent[NAME] if parent else None
    if name == "state.apply_single" and pname == "shor.run_once_full":
        return "hadamard"
    if name == "oracle.modexp_oracle":
        return "oracle_build"
    if name == "state.apply_permutation" and pname == "shor.run_once_full":
        return "oracle_apply"
    if name == "state.measure_subregister" and pname == "shor.run_once_full":
        return "measure_y" if qft_done else "measure_f"
    if name == "state.measure_all" and pname == "shor.run_once_hybrid":
        return "measure_y"
    if name == "qft.apply_qft_on":
        return "qft"
    if name in ("numtheory.recover_period", "numtheory.continued_fraction_convergents") \
            and pname in RUN_ONCE:
        return "recover"
    if name == "shor.build_period_state":
        return "period_state"
    if name == "numtheory.multiplicative_order":
        return "order"
    return None


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``<layer>.<function>.<stat>`` from a run's spans.

    Every name is present on every workload; a layer that did not run reads 0.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    qty: dict[str, int] = {}
    stages = dict.fromkeys(STAGES, 0.0)
    qft_done: set[int] = set()
    max_amps = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        total_s[name] = total_s.get(name, 0.0) + (s[END] - s[START])
        qty[name] = qty.get(name, 0) + s[QTY]
        if name.startswith("state."):
            max_amps = max(max_amps, s[QTY])
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        stage = _stage(s, parent, s[PARENT] in qft_done)
        if stage is not None:
            stages[stage] += s[END] - s[START]
        if name == "qft.apply_qft_on":
            qft_done.add(s[PARENT])

    def c(name):
        return float(calls.get(name, 0))

    m: dict[str, tuple[float, str]] = {}
    amps_total = 0
    for k in STATE_KERNELS:
        name = f"state.{k}"
        amps_total += qty.get(name, 0)
        m[f"{name}.calls"] = (c(name), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        per = self_s.get(name, 0.0) * 1e9 / qty[name] if qty.get(name) else 0.0
        m[f"{name}.ns_per_amp"] = (per, "ns")
    # Computed, not measured: one read and one write of every amplitude per call.
    m["state.computed_bytes"] = (float(2 * 16 * amps_total), "B")
    m["state.max_width"] = (float(max(max_amps.bit_length() - 1, 0)), "qubits")
    m["state.max_state_bytes"] = (float(16 * max_amps), "B")
    m["oracle.modexp_oracle.calls"] = (c("oracle.modexp_oracle"), "count")
    m["oracle.modexp_oracle.self_s"] = (self_s.get("oracle.modexp_oracle", 0.0), "s")
    m["oracle.modexp_oracle.table_entries"] = (float(qty.get("oracle.modexp_oracle", 0)), "count")
    for name in ("circuit.run", "circuit.embedded", "circuit.parse", "gates.construct",
                 "qft.qft_circuit", "cli.main", "cli.circuit_run", "shor.run_shor"):
        m[f"{name}.calls"] = (c(name), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    m["circuit.run.ops"] = (float(qty.get("circuit.run", 0)), "count")
    m["qft.apply_qft_on.calls"] = (c("qft.apply_qft_on"), "count")
    m["qft.apply_qft_on.total_s"] = (total_s.get("qft.apply_qft_on", 0.0), "s")
    op_s = total_s.get("op", 0.0)
    m["qft.share"] = (total_s.get("qft.apply_qft_on", 0.0) / op_s if op_s else 0.0, "ratio")
    for k in NUMTHEORY:
        name = f"numtheory.{k}"
        m[f"{name}.calls"] = (c(name), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    rp = "numtheory.recover_period"
    m[f"{rp}.hit_ratio"] = (qty.get(rp, 0) / calls[rp] if calls.get(rp) else 0.0, "ratio")
    attempts = sum(calls.get(n, 0) for n in RUN_ONCE)
    found = sum(qty.get(n, 0) for n in RUN_ONCE)
    m["shor.attempt_success_ratio"] = (found / attempts if attempts else 0.0, "ratio")
    shors = calls.get("shor.run_shor", 0)
    m["shor.lucky_gcd_ratio"] = (qty.get("shor.run_shor", 0) / shors if shors else 0.0, "ratio")
    for k in STAGES:
        m[f"shor.stage.{k}_s"] = (stages[k], "s")
    m["trace.op_self_s"] = (self_s.get("op", 0.0), "s")
    return m


def op_closure_error(spans) -> float:
    """Largest |sum of self times of an op's spans - its root span's duration|."""
    selfs = self_times(spans)
    per_op: dict[int, float] = {}
    root: dict[int, float] = {}
    for s, st in zip(spans, selfs):
        per_op[s[OP]] = per_op.get(s[OP], 0.0) + st
        if s[PARENT] < 0:
            root[s[OP]] = s[END] - s[START]
    return max((abs(per_op[k] - root[k]) for k in root), default=0.0)
