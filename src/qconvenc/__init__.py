"""Encoder synthesis and analysis for quantum convolutional codes.

Builds minimal-memory, non-catastrophic Clifford encoders for stabilizer
convolutional codes given as frame-block generator streams, and provides
state-diagram oracles to audit the result.

Each public name is imported from its home module on first use (PEP 562),
so ``import qconvenc`` loads no submodule, and a caller compiles only the
stages it reaches.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_HOMES = {
    "Pauli": "pauli",
    **dict.fromkeys(
        ("ConvolutionalCode", "GeneratorPolynomial", "parse_code", "serialize_code",
         "validate_code", "delay_generator", "multiply_generators"),
        "code",
    ),
    "shorten": "shorten",
    **dict.fromkeys(
        ("build_commutativity_matrix", "minimal_memory", "compute_centralizer", "synthesize"),
        "synth",
    ),
    **dict.fromkeys(
        ("CliffordTableau", "complete_to_clifford", "synthesize_circuit",
         "detect_catastrophic", "verify_non_recursive", "roundtrip_verify"),
        "tableau",
    ),
    **dict.fromkeys(
        ("QconvError", "ParseError", "WidthMismatchError", "InvalidMatrixError",
         "InvalidDelayError", "DegenerateCodeError", "InvalidCodeError", "CodeShapeError",
         "CompletionError", "SynthesisFailureError", "MemoryBoundError"),
        "errors",
    ),
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__():
    return __all__


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # Loading a submodule binds it on the package, but the public name
        # ``shorten`` is the function, not its module: leave it to __getattr__.
        if not (name in _HOMES and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
