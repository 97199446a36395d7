"""Exhaustive search oracles that only the tests use."""

from typing import List

from qconvenc.pauli import BinaryMatrix, gf2_in_rowspan


def _parity(word: int) -> int:
    return word.bit_count() & 1


def exists_gram_realization(
    mat: BinaryMatrix, qubits: int, require_independent: bool = True
) -> bool:
    """Whether some tuple of Paulis on ``qubits`` qubits has Gram matrix ``mat``.

    With ``require_independent`` the tuple must be linearly independent as
    GF(2) vectors, matching the role memory operators play in an encoder.
    Exhaustive backtracking; intended for small dimensions only.
    """
    n = mat.nrows
    width = 2 * qubits
    target = mat.to_lists()

    def sym(u: int, v: int) -> int:
        ux, uz = u & ((1 << qubits) - 1), u >> qubits
        vx, vz = v & ((1 << qubits) - 1), v >> qubits
        return _parity(ux & vz) ^ _parity(uz & vx)

    chosen: List[int] = []

    def backtrack(level: int) -> bool:
        if level == n:
            return True
        for cand in range(1 << width):
            ok = True
            for prev_idx in range(level):
                if sym(chosen[prev_idx], cand) != target[level][prev_idx]:
                    ok = False
                    break
            if not ok:
                continue
            if require_independent and gf2_in_rowspan(cand, chosen):
                continue
            chosen.append(cand)
            if backtrack(level + 1):
                return True
            chosen.pop()
        return False

    return backtrack(0)
