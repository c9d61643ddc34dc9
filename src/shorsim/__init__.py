"""Desk-scale state-vector simulator with a complete order-finding factoring pipeline."""

from .circuit import Circuit, CircuitParseError, GateOp
from .gates import (
    Gate2,
    Gate4,
    hadamard,
    identity_gate,
    is_unitary,
    not_gate,
    phase_shift,
    swap_gate,
    tensor_product,
)
from .numtheory import (
    Convergent,
    OrderSearchBudgetExceeded,
    PeriodCandidate,
    continued_fraction_convergents,
    extended_gcd,
    factor_from_period,
    gcd,
    is_probable_prime,
    mod_pow,
    multiplicative_order,
    recover_period,
)
from .oracle import (
    ReversibleFunction,
    compute_copy_uncompute,
    modexp_oracle,
    modexp_trace,
    multi_and_circuit,
    xor_oracle,
)
from .qft import apply_qft, apply_qft_on, dft_reference, qft_circuit
from .shor import (
    FactoringResult,
    RunRecord,
    ShorConfig,
    build_period_state,
    choose_register_size,
    prepare_uniform,
    run_once_classical,
    run_once_full,
    run_once_hybrid,
    run_shor,
)
from .state import (
    DEFAULT_MAX_QUBITS,
    BasisPermutation,
    MeasurementOutcome,
    QuantumState,
    basis_state,
)

__version__ = "0.1.0"
