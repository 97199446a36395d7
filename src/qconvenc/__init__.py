"""Encoder synthesis and analysis for quantum convolutional codes.

Builds minimal-memory, non-catastrophic Clifford encoders for stabilizer
convolutional codes given as frame-block generator streams, and provides
state-diagram oracles to audit the result.
"""

from .code import (
    ConvolutionalCode,
    GeneratorPolynomial,
    delay_generator,
    multiply_generators,
    parse_code,
    serialize_code,
    validate_code,
)
from .errors import (
    CodeShapeError,
    CompletionError,
    DegenerateCodeError,
    InvalidCodeError,
    InvalidDelayError,
    InvalidMatrixError,
    MemoryBoundError,
    ParseError,
    QconvError,
    SynthesisFailureError,
    WidthMismatchError,
    WindowError,
)
from .pauli import Pauli, symplectic_product
from .shorten import group_equivalent, shorten
from .synth import (
    build_commutativity_matrix,
    compute_centralizer,
    minimal_memory,
    synthesize,
    verify_consistency,
)
from .tableau import (
    CliffordTableau,
    complete_to_clifford,
    detect_catastrophic,
    roundtrip_verify,
    synthesize_circuit,
    verify_non_recursive,
    zero_physical_edges,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Pauli",
    "symplectic_product",
    "ConvolutionalCode",
    "GeneratorPolynomial",
    "parse_code",
    "serialize_code",
    "validate_code",
    "delay_generator",
    "multiply_generators",
    "shorten",
    "group_equivalent",
    "build_commutativity_matrix",
    "verify_consistency",
    "minimal_memory",
    "compute_centralizer",
    "synthesize",
    "CliffordTableau",
    "complete_to_clifford",
    "synthesize_circuit",
    "zero_physical_edges",
    "detect_catastrophic",
    "verify_non_recursive",
    "roundtrip_verify",
    "QconvError",
    "ParseError",
    "WidthMismatchError",
    "InvalidMatrixError",
    "InvalidDelayError",
    "DegenerateCodeError",
    "InvalidCodeError",
    "CodeShapeError",
    "WindowError",
    "CompletionError",
    "SynthesisFailureError",
    "MemoryBoundError",
]
