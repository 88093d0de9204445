"""Spin chains with q-deformed couplings.

Build the nearest-neighbour hopping matrix of a spin chain from the
Jacobi (three-term recurrence) matrix of a finite q-orthogonal
polynomial family, diagonalise it in closed form, evolve a single
excitation exactly, and certify or refute perfect state transfer with
rational phase arithmetic.

The layers build on each other: :mod:`qchain.qseries` (q-arithmetic and
the exact series kernel), :mod:`qchain.families` (the seven polynomial
families and their chain data), :mod:`qchain.chain` (tridiagonal
assembly and two independent diagonalisation routes),
:mod:`qchain.evolve` (time evolution, exact phases, transfer
certification), :mod:`qchain.closedform` (analytic transfer-time
amplitudes), and :mod:`qchain.cli` (the command-line surface).
"""

from .qseries import (
    ParityClass,
    RationalQ,
    q_number,
    q_pochhammer_exact,
    basic_hypergeometric,
    basic_hypergeometric_exact,
    vwp_pair_reduce_exact,
    QSeriesError,
    NonTerminatingSeriesError,
    DenominatorZeroError,
    PoleAtOneError,
    NotOddOddError,
)
from .families import (
    Family,
    FamilySpec,
    InvalidSpecError,
    NumericalCheckError,
    affine_q_krawtchouk,
    dual_q_hahn,
    dual_q_krawtchouk,
    pst_spec,
    q_hahn,
    q_krawtchouk,
    q_racah,
    quantum_q_krawtchouk,
    recurrence_coefficients,
    validate,
)
from .chain import (
    SignConvention,
    SpinChain,
    SpectralDecomposition,
    analytic_decomposition,
    assemble_matrix,
    numeric_decomposition,
    verify_decomposition,
)
from .evolve import (
    Amplitude,
    ExactPhaseTime,
    TimeBoundExceededError,
    TransferReport,
    TransferVerdict,
    bracket_integer,
    classify_q,
    correlation,
    correlation_exact_phase,
    exact_phase_matrix,
    matched_phase_time,
    phase_parity_check,
    phase_residues,
    pst_time,
    transfer_report,
)
from .closedform import (
    ClosedFormResult,
    Method,
    PhaseConditionUnmetError,
    argmax_p,
    direct_spectral_sum,
    matched_transfer_time,
)

__version__ = "0.1.0"

__all__ = [
    "Amplitude",
    "ClosedFormResult",
    "DenominatorZeroError",
    "ExactPhaseTime",
    "Family",
    "FamilySpec",
    "InvalidSpecError",
    "Method",
    "NonTerminatingSeriesError",
    "NotOddOddError",
    "NumericalCheckError",
    "ParityClass",
    "PhaseConditionUnmetError",
    "PoleAtOneError",
    "QSeriesError",
    "RationalQ",
    "SignConvention",
    "SpectralDecomposition",
    "SpinChain",
    "TimeBoundExceededError",
    "TransferReport",
    "TransferVerdict",
    "__version__",
    "affine_q_krawtchouk",
    "analytic_decomposition",
    "argmax_p",
    "assemble_matrix",
    "basic_hypergeometric",
    "basic_hypergeometric_exact",
    "bracket_integer",
    "classify_q",
    "correlation",
    "correlation_exact_phase",
    "direct_spectral_sum",
    "dual_q_hahn",
    "dual_q_krawtchouk",
    "exact_phase_matrix",
    "matched_phase_time",
    "matched_transfer_time",
    "numeric_decomposition",
    "phase_parity_check",
    "phase_residues",
    "pst_spec",
    "pst_time",
    "q_hahn",
    "q_krawtchouk",
    "q_number",
    "q_pochhammer_exact",
    "q_racah",
    "quantum_q_krawtchouk",
    "recurrence_coefficients",
    "transfer_report",
    "validate",
    "verify_decomposition",
    "vwp_pair_reduce_exact",
]
