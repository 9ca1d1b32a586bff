"""Central argument validation shared by the facade and the core API.

One home for the parameter checks that used to be scattered ad-hoc through
``core.api`` and ``orderings.api``, with one uniform error format::

    <param> must be one of 'a', 'b', 'c'; got 'x'

so every entry point rejects bad input with the same, predictable message.
Failures raise :class:`repro.errors.ValidationError` — a ``ValueError``
subclass, so both ``except ValueError`` and the unified
:class:`repro.errors.ReproError` base catch them.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "START_STRATEGIES",
    "check_choice",
    "check_min",
    "check_start",
    "choices_text",
    "as_csr",
]

#: named start-node selection strategies accepted everywhere
START_STRATEGIES = ("min-valence", "peripheral")


def choices_text(choices: Sequence[str]) -> str:
    """Render a choice tuple as ``'a', 'b', 'c'`` — the one formatting used
    by every error message and derived docstring, so enumerations can never
    drift from the defining tuple."""
    return ", ".join(repr(c) for c in choices)


def check_choice(param: str, value, choices: Sequence[str]) -> None:
    """Raise :class:`ValidationError` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValidationError(
            f"{param} must be one of {choices_text(choices)}; got {value!r}"
        )


def check_min(param: str, value: int, minimum: int) -> None:
    """Raise :class:`ValidationError` unless ``value`` is an int ``>= minimum``."""
    if not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValidationError(f"{param} must be an integer >= {minimum}; got {value!r}")


def check_start(start: Union[int, str], n: int) -> None:
    """Validate a start argument: a node id in ``[0, n)`` or a strategy."""
    if isinstance(start, (int, np.integer)):
        if not 0 <= int(start) < n:
            raise ValidationError(f"start node {int(start)} out of range [0, {n})")
        return
    if start not in START_STRATEGIES:
        raise ValidationError(
            "start strategy must be one of "
            f"{choices_text(START_STRATEGIES)}; got {start!r}"
        )


def as_csr(mat):
    """The front-door input contract: a ``CSRMatrix`` passes, a scipy
    sparse matrix is converted with ``CSRMatrix.from_scipy``, anything
    else raises :class:`ValidationError` naming its type."""
    from repro.sparse.csr import CSRMatrix

    if isinstance(mat, CSRMatrix):
        return mat
    import scipy.sparse as sp

    if sp.issparse(mat) and mat.ndim == 2 and mat.shape[0] == mat.shape[1]:
        return CSRMatrix.from_scipy(mat)
    kind = f"shape {mat.shape}" if sp.issparse(mat) else type(mat).__qualname__
    raise ValidationError(
        f"matrix must be a square CSRMatrix or scipy sparse matrix; got {kind}"
    )
