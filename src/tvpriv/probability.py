"""Validated probability vectors and channels on finite alphabets.

Everything in this module is immutable after construction and every
operation is a pure function, so values can be shared freely across
threads.  Inputs farther than ``PROB_ATOL`` from the probability simplex
are rejected rather than silently fixed; inputs inside the tolerance are
renormalized exactly once at construction.
"""

from __future__ import annotations

import numpy as np

from ._value import Value
from .tolerances import PROB_ATOL


class NegativeEntry(ValueError):
    """A probability vector contains a negative entry."""


class SumNotOne(ValueError):
    """A probability vector does not sum to 1 within tolerance."""


class ZeroMassSymbol(ValueError):
    """A symbol that must have strictly positive mass has none."""


class DimensionMismatch(ValueError):
    """Operands have incompatible alphabet sizes."""


class Pmf(Value):
    """A probability mass function over a finite alphabet.

    Entries must be finite, nonnegative and sum to 1 within ``PROB_ATOL``; the
    stored vector is renormalized so it sums to 1 exactly.
    """

    __slots__ = ("probs",)

    def __init__(self, probs):
        v = np.asarray(probs, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("pmf must be a non-empty 1-D vector")
        ok = v.min() >= 0  # false for a NaN or -inf entry
        s = v.sum() if ok else None
        if not ok or abs(s - 1.0) > PROB_ATOL:  # an inf entry fails here
            if not np.all(np.isfinite(v)):
                raise ValueError("pmf entries must be finite")
            if np.any(v < 0):
                raise NegativeEntry(f"negative entry {v.min():.3g} in pmf")
            raise SumNotOne(f"pmf sums to {s!r}, not 1 (tolerance {PROB_ATOL})")
        Value.__init__(self, v / s)

    def __len__(self) -> int:
        return self.probs.size


class Channel(Value):
    """A column-stochastic matrix: column j is the output pmf given input j."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise ValueError("channel must be a non-empty 2-D matrix")
        ok = m.min() >= 0  # false for a NaN or -inf entry
        sums = m.sum(axis=0) if ok else None
        if not ok or np.any(np.abs(sums - 1.0) > PROB_ATOL):  # or an inf entry
            if not np.all(np.isfinite(m)):
                j = int(np.argwhere(~np.isfinite(m))[0][1])
                raise ValueError(f"non-finite entry in channel column {j}")
            if np.any(m < 0):
                j = int(np.argwhere(m < 0)[0][1])
                raise NegativeEntry(f"negative entry in channel column {j}")
            j = int(np.argmax(np.abs(sums - 1.0) > PROB_ATOL))
            raise SumNotOne(f"channel column {j} sums to {sums[j]!r}, not 1")
        Value.__init__(self, m / sums)

    @property
    def n_outputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.matrix[:, j]


class JointSource(Value):
    """A joint source (p_Y, P_{X|Y}) with X the secret and Y the data.

    Both marginals must be strictly positive: a zero-mass symbol could
    simply be removed from the alphabet, and downstream formulas divide
    by marginal probabilities.  ``y_values`` optionally assigns distinct
    numeric values to the Y symbols for squared-error utilities.
    """

    __slots__ = ("p_y", "channel_x_given_y", "y_values")

    def __init__(self, p_y: Pmf, channel_x_given_y: Channel,
                 y_values: np.ndarray | None = None):
        if channel_x_given_y.n_inputs != len(p_y):
            raise DimensionMismatch(
                f"channel has {channel_x_given_y.n_inputs} input symbols, "
                f"p_y has {len(p_y)}")
        if np.any(p_y.probs <= 0):
            raise ZeroMassSymbol("p_y must be strictly positive")
        if np.any(channel_x_given_y.matrix @ p_y.probs <= 0):
            raise ZeroMassSymbol("induced p_x has a zero-mass symbol")
        if y_values is not None:
            y_values = np.array(y_values, dtype=float)
            if y_values.shape != (len(p_y),):
                raise DimensionMismatch("y_values length must equal |Y|")
            if not np.all(np.isfinite(y_values)):
                raise ValueError("y_values must be finite")
            # sort-and-diff rather than np.unique, which imports numpy.ma
            if np.any(np.diff(np.sort(y_values)) == 0):
                raise ValueError("y_values must be distinct")
        Value.__init__(self, p_y, channel_x_given_y, y_values)

    @property
    def n_x(self) -> int:
        return self.channel_x_given_y.n_outputs

    @property
    def n_y(self) -> int:
        return len(self.p_y)

    def marginal_x(self) -> Pmf:
        """The marginal p_X = P_{X|Y} p_Y; strictly positive by construction."""
        return Pmf(self.channel_x_given_y.matrix @ self.p_y.probs)


class Mechanism(Value):
    """A release channel p_{U|Y} with optional labels for the U symbols.

    Labels are numeric estimates of Y for squared-error utility, or
    Y-symbol indices for error-probability utility; ``None`` when U is
    purely categorical.
    """

    __slots__ = ("channel_u_given_y", "u_labels")

    def __init__(self, channel_u_given_y: Channel,
                 u_labels: np.ndarray | None = None):
        if u_labels is not None:
            u_labels = np.array(u_labels, dtype=float)
            if u_labels.shape != (channel_u_given_y.n_outputs,):
                raise DimensionMismatch("u_labels length must equal |U|")
        Value.__init__(self, channel_u_given_y, u_labels)

    @classmethod
    def identity(cls, n: int, labels=None) -> "Mechanism":
        return cls(Channel(np.eye(n)), labels)


def compose(mech: Mechanism, src: JointSource):
    """Push the source through a release mechanism along X - Y - U.

    Returns ``(p_u, p_x_given_u, p_y_given_u)``.  U symbols that receive
    zero mass are dropped and the U alphabet re-indexed: all leakage and
    utility measures are averages over p_U, so zero-mass atoms carry no
    information.
    """
    m = mech.channel_u_given_y.matrix
    if m.shape[1] != src.n_y:
        raise DimensionMismatch(
            f"mechanism expects {m.shape[1]} data symbols, source has {src.n_y}")
    p_u = m @ src.p_y.probs
    keep = p_u > 0
    p_u = p_u[keep]
    # columns of p_{Y|u}: Bayes posterior of Y given each surviving u
    p_y_given_u = (m[keep, :] * src.p_y.probs).T / p_u
    p_x_given_u = src.channel_x_given_y.matrix @ p_y_given_u
    return Pmf(p_u), Channel(p_x_given_u), Channel(p_y_given_u)


def bayes_invert(p_u: Pmf, p_x_given_u: Channel, p_x: Pmf) -> Channel:
    """Invert (p_U, p_{X|U}) into the channel p_{U|X}.

    Requires p_x strictly positive and consistent with the pair, i.e.
    p_x = sum_u p_U(u) p_{X|u}.
    """
    if p_x_given_u.n_inputs != len(p_u) or p_x_given_u.n_outputs != len(p_x):
        raise DimensionMismatch("inconsistent dimensions in bayes_invert")
    if np.any(p_x.probs <= 0):
        raise ZeroMassSymbol("p_x must be strictly positive to invert")
    joint = p_x_given_u.matrix * p_u.probs  # joint[x, u]
    return Channel(joint.T / p_x.probs)


def entropy(p) -> float:
    """Shannon entropy in bits, with the convention 0 log 0 = 0."""
    v = p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=float)
    nz = v[v > 0]
    # 0.0 - s, not -s: a point mass has s = 0.0, and -0.0 would print as -0
    return float(0.0 - (nz * np.log2(nz)).sum())
