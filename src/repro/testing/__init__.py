"""Test support: the in-memory reference oracle.

:class:`~repro.testing.reference.ReferenceDatabase` implements the full
temporal semantics directly on Python dictionaries, reusing the *same*
pure history algebra (:mod:`repro.core.history`) the engine compiles to
storage operations.  Differential tests drive the engine and the oracle
with identical operation sequences and require identical answers.
:func:`~repro.testing.reference.rescanning_history` is the definitional
history loop the oracle answers interval queries with.
"""

from repro.testing.reference import ReferenceDatabase, rescanning_history

__all__ = ["ReferenceDatabase", "rescanning_history"]
