"""Exact-arithmetic toolkit for U(sl2), the universal Hahn algebra, and the
Terwilliger algebras of hypercubes and halved hypercubes.

Everything runs over exact rationals: PBW normal forms, free-algebra ideal
membership certificates, module decompositions and matrix-algebra closures.
The package re-exports nothing: import its modules (``hahnsl2.usl2``,
``hahnsl2.reps``, ...).
"""
