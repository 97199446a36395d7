import os

import pytest
from hypothesis import strategies as st

import qconvenc.tableau
from qconvenc import ConvolutionalCode, GeneratorPolynomial, parse_code

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS_DIR, name + ".qcc")


def load_code(name: str):
    with open(corpus_path(name), "r", encoding="utf-8") as handle:
        return parse_code(handle.read())


@pytest.fixture(autouse=True)
def fresh_state_diagram_solve():
    """Start each test without a kept state-diagram solve, so a test that
    patches the solve's pieces or counts its calls sees its own solve."""
    qconvenc.tableau._solve.cache_clear()


@pytest.fixture
def running1():
    return load_code("running1")


@pytest.fixture
def running2():
    return load_code("running2")


@st.composite
def symmetric_zero_diag(draw, max_dim=6):
    """A symmetric GF(2) matrix with zero diagonal, a commutativity matrix, as
    row words: bit j of row i is entry (i, j)."""
    dim = draw(st.integers(min_value=0, max_value=max_dim))
    rows = [0] * dim
    for i in range(dim):
        for j in range(i + 1, dim):
            if draw(st.integers(0, 1)):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


@st.composite
def shift_invariant_codes(draw, min_generators=1):
    """A valid code made by a random shift-invariant Clifford encoder, with
    n <= 8 and at least ``min_generators`` generators.

    Generator i starts as Z on qubit i, for i < n - k.  Each qubit's x and z
    parts are Laurent polynomials in the delay D, held as ints with bit
    ``low + e`` for D^e.  Between 2n and 8n gates then act on every
    generator, each with a delay s <= 2:
    - H(q) swaps x_q and z_q, and S(q) sets z_q ^= x_q;
    - CNOT(a -> b, D^s) sets x_b ^= D^s x_a and z_a ^= D^-s z_b;
    - CZ(a, b, D^s) sets z_b ^= D^s x_a and z_a ^= D^-s x_b.
    Each gate is an invertible symplectic map that commutes with the shift,
    so the generators stay pairwise commuting under every shift.  Each is
    finally delayed to start at frame 1.
    """
    n = draw(st.integers(min_generators + 1, 8))
    k = draw(st.integers(1, n - min_generators))
    qubit = st.integers(0, n - 1)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
    gates = draw(
        st.lists(
            st.tuples(st.sampled_from("hs"), qubit, st.just(0), st.just(0))
            | st.tuples(st.sampled_from(["cnot", "cz"]), pair, st.integers(0, 2))
            .map(lambda g: (g[0], g[1][0], g[1][1], g[2])),
            min_size=2 * n,
            max_size=8 * n,
        )
    )
    low = 2 * len(gates)  # no exponent falls below -low
    generators = []
    for i in range(n - k):
        xs, zs = [0] * n, [0] * n
        zs[i] = 1 << low
        for kind, a, b, s in gates:
            if kind == "h":
                xs[a], zs[a] = zs[a], xs[a]
            elif kind == "s":
                zs[a] ^= xs[a]
            elif kind == "cnot":
                xs[b] ^= xs[a] << s
                zs[a] ^= zs[b] >> s
            else:
                zs[b] ^= xs[a] << s
                zs[a] ^= xs[b] >> s
        start = min((p & -p).bit_length() - 1 for p in xs + zs if p)
        top = max(p.bit_length() for p in xs + zs)
        word = 0
        for j, e in enumerate(range(start, top)):
            block = sum((xs[q] >> e & 1) << q | (zs[q] >> e & 1) << n + q for q in range(n))
            word |= block << 2 * n * j
        generators.append(GeneratorPolynomial(n, word))
    return ConvolutionalCode(n, k, tuple(generators))
