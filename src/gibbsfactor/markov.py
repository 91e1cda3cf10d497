"""Stationary 1-step Markov measures on a topological Markov chain.

A model couples a chain with a row-stochastic transition matrix supported
exactly on allowed transitions, together with its stationary distribution.
The log-ratio potential phi(a, a') = log(mu[a] P(a, a') / mu[a']) turns
cylinder weights into pure products: mu[a0..an] = exp(sum phi) * mu[an],
exactly, which is what every fiber-matrix construction downstream relies on.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ModelError
from .tmc import Tmc, check_primitivity, word_symbols

ROW_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-13


def stationary_distribution(tmc: Tmc, transition: np.ndarray) -> np.ndarray:
    """Unique stationary probability vector of a primitive chain.

    Dense linear solve of the balance equations with the normalization row
    substituted in; refuses non-primitive incidence, where uniqueness can
    fail.
    """
    result = check_primitivity(tmc)
    if not result.primitive:
        raise ModelError(
            "stationary distribution requires a primitive incidence matrix"
        )
    transition = np.asarray(transition, dtype=float)
    n = tmc.size
    a = transition.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    mu = np.linalg.solve(a, rhs)
    residual = np.abs(mu @ transition - mu).max()
    if residual > STATIONARY_RESIDUAL_TOL:
        # one refinement pass; tiny systems essentially never need it
        for _ in range(64):
            mu = mu @ transition
            mu /= mu.sum()
        residual = np.abs(mu @ transition - mu).max()
        if residual > STATIONARY_RESIDUAL_TOL:
            raise ModelError(f"stationary solve residual {residual:.3e} too large")
    if (mu <= 0).any():
        raise ModelError("stationary distribution must be strictly positive")
    return mu


class MarkovModel:
    """Primitive chain + row-stochastic transition + stationary distribution."""

    def __init__(self, tmc: Tmc, transition, stationary=None):
        transition = np.asarray(transition, dtype=float)
        n = tmc.size
        if transition.shape != (n, n):
            raise ModelError("transition shape does not match alphabet size")
        # a nan entry would pass every comparison below
        if not np.isfinite(transition).all():
            raise ModelError("transition entries must be finite")
        # finite entries near 1e308 may still sum to inf, which fails below
        with np.errstate(over="ignore"):
            row_sums = transition.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > ROW_SUM_TOL:
            raise ModelError("transition rows must sum to 1 within 1e-12")
        on = tmc.incidence == 1
        if (transition[~on] != 0.0).any():
            raise ModelError("transition must vanish exactly off the incidence support")
        if (transition[on] <= 0.0).any():
            raise ModelError("transition must be strictly positive on allowed edges")
        if stationary is None:
            stationary = stationary_distribution(tmc, transition)
        else:
            stationary = np.asarray(stationary, dtype=float)
            if not np.isfinite(stationary).all():
                raise ModelError("stationary entries must be finite")
            if (stationary <= 0).any():
                raise ModelError("stationary vector must be strictly positive")
            if abs(stationary.sum() - 1.0) > ROW_SUM_TOL:
                raise ModelError("stationary vector must sum to 1")
            if np.abs(stationary @ transition - stationary).max() > 1e-12:
                raise ModelError("supplied vector is not stationary")
        self.tmc = tmc
        self.transition = transition
        self.stationary = stationary

    @property
    def size(self) -> int:
        return self.tmc.size


class RangeTwoPotential(NamedTuple):
    """Matrix of phi(a, a') over allowed transitions, -inf elsewhere."""

    values: np.ndarray

    def __call__(self, a: int, b: int) -> float:
        return float(self.values[a, b])


def derive_potential(model: MarkovModel) -> RangeTwoPotential:
    """phi(a, a') = log(mu[a] P(a, a') / mu[a']) on the incidence support.

    Summing phi along a word telescopes the stationary weights, so
    mu[a0..an] = exp(sum_i phi(ai, ai+1)) * mu[an] holds as an identity.
    """
    mu = model.stationary
    on = model.tmc.incidence == 1
    ratio = mu[:, None] * model.transition / mu[None, :]
    values = np.full_like(model.transition, -np.inf)
    values[on] = np.log(ratio[on])
    return RangeTwoPotential(values)


def log_cylinder_measure(model: MarkovModel, word) -> float:
    """log mu[w], accumulated in log space."""
    symbols = word_symbols(model.tmc, word)
    total = float(np.log(model.stationary[symbols[0]]))
    for a, b in zip(symbols, symbols[1:]):
        total += float(np.log(model.transition[a, b]))
    return total


def cylinder_measure(model: MarkovModel, word) -> float:
    """mu[w] for an admissible word w; inadmissible words raise."""
    return float(np.exp(log_cylinder_measure(model, word)))
