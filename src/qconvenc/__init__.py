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
)
from .pauli import Pauli
from .shorten import shorten
from .synth import (
    build_commutativity_matrix,
    compute_centralizer,
    minimal_memory,
    synthesize,
)
from .tableau import (
    CliffordTableau,
    complete_to_clifford,
    detect_catastrophic,
    roundtrip_verify,
    synthesize_circuit,
    verify_non_recursive,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Pauli",
    "ConvolutionalCode",
    "GeneratorPolynomial",
    "parse_code",
    "serialize_code",
    "validate_code",
    "delay_generator",
    "multiply_generators",
    "shorten",
    "build_commutativity_matrix",
    "minimal_memory",
    "compute_centralizer",
    "synthesize",
    "CliffordTableau",
    "complete_to_clifford",
    "synthesize_circuit",
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
    "CompletionError",
    "SynthesisFailureError",
    "MemoryBoundError",
]
