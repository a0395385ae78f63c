"""Single-qubit operators lifted to the pair.

Conventions used throughout the package:

* the joint basis is ordered ``|00>, |01>, |10>, |11>`` with arm 1 as the
  left tensor factor,
* an analyzer is an angle ``phi`` in radians, with ``ket0 = cos(phi/2)|0>
  + sin(phi/2)|1>`` and ``ket1 = -sin(phi/2)|0> + cos(phi/2)|1>``; its
  dichotomic observable assigns +1 to ``ket0`` and -1 to ``ket1``,
* single-qubit operators are ``(2, 2)`` complex arrays, and :func:`embed`
  lifts them to ``(4, 4)`` operators on the pair.
"""

from __future__ import annotations

import numpy as np

IDENTITY_2 = np.eye(2, dtype=complex)


def embed(op: np.ndarray, arm: int) -> np.ndarray:
    """Lift a single-qubit operator to the pair: ``op (x) I`` or ``I (x) op``."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"single-qubit operator must be 2x2, got shape {op.shape}")
    if arm == 1:
        return np.kron(op, IDENTITY_2)
    if arm == 2:
        return np.kron(IDENTITY_2, op)
    raise ValueError(f"arm must be 1 or 2, got {arm}")
