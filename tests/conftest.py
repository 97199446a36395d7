import os

import pytest
from hypothesis import strategies as st

import qconvenc.tableau
from qconvenc import parse_code

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
    qconvenc.tableau._realisation.cache_clear()


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
