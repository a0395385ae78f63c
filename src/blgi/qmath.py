"""Conventions used throughout the package.

* The joint basis is ordered ``|00>, |01>, |10>, |11>`` with arm 1 as the
  left tensor factor; :data:`blgi.measurement.BELL_AMPLITUDES` is the pair
  in it, and read as a 2x2 matrix (row: arm 1) it pairs the two arms.
* An analyzer is an angle ``phi`` in radians, with ``ket0 = cos(phi/2)|0>
  + sin(phi/2)|1>`` and ``ket1 = -sin(phi/2)|0> + cos(phi/2)|1>``; its
  dichotomic observable assigns +1 to ``ket0`` and -1 to ``ket1``.
* Single-qubit operators are real ``(2, 2)`` arrays: every analyzer is a
  real angle and the pair's amplitudes are real.
"""
