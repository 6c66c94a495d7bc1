"""Huber penalty, loss, gradient, and the local curvature predicate.

The penalty is quadratic on [-h, h] and linear outside, with matching value
and slope at the transition.  All entrywise functions accept scalars or
arrays; the loss reduces with numpy's pairwise summation, so repeated
evaluation on identical inputs is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prox import _finite_array

__all__ = [
    "HuberParams",
    "huber_penalty",
    "huber_penalty_deriv",
    "huber_loss",
    "huber_loss_grad",
    "huber_loss_and_grad",
    "curvature_lower_bound_holds",
]


@dataclass(frozen=True)
class HuberParams:
    """Transition point ``h`` between the quadratic and linear branches."""

    h: float

    def __post_init__(self):
        h = self.h
        if not (np.isscalar(h) and np.isfinite(h) and h > 0):
            raise ValueError(f"huber transition h must be finite and positive, got {h!r}")


def _penalty_and_clip(r, h):
    """The entrywise penalty (0.5 c) c + h |r - c| and the clip c = clip(r, -h, h),
    evaluated in place after the clip."""
    c = np.clip(r, -h, h)
    excess = np.abs(r - c)
    excess *= h
    out = np.multiply(c, 0.5)
    out *= c
    out += excess
    return out, c


def huber_penalty(t, params: HuberParams):
    """Penalty value: t^2/2 for |t| <= h, h(|t| - h/2) beyond.

    Evaluated as c^2/2 + h*|t - c| with c = clip(t, -h, h), which agrees with
    both branches and never squares a large argument.
    """
    out, _ = _penalty_and_clip(_finite_array(t, "t"), params.h)
    return float(out) if out.ndim == 0 else out


def huber_penalty_deriv(t, params: HuberParams):
    """Derivative: t inside [-h, h] (the kink at |t| = h included), h*sign(t) outside."""
    out = huber_loss_grad(t, params)
    return float(out) if out.ndim == 0 else out


def huber_loss(residuals, params: HuberParams) -> float:
    """Sum of the penalty over all entries of a residual vector or matrix.

    Empty input sums to zero.
    """
    return huber_loss_and_grad(residuals, params)[0]


def huber_loss_grad(residuals, params: HuberParams):
    """Entrywise penalty derivative, same shape as the input."""
    r = _finite_array(residuals, "residuals")
    return np.clip(r, -params.h, params.h)


def huber_loss_and_grad(residuals, params: HuberParams):
    """(huber_loss(r), huber_loss_grad(r)) from one finiteness check and one clip."""
    out, c = _penalty_and_clip(_finite_array(residuals, "residuals"), params.h)
    return float(np.sum(out)), c


def curvature_lower_bound_holds(eta, delta, tau, params: HuberParams):
    """Second-order lower bound predicate for the penalty.

    Checks f(eta+delta) - f(eta) - f'(eta)*delta >= (delta^2/2) * 1{|eta| <= h - tau}
    * 1{|delta| <= tau}.  Requires 0 <= tau <= h.  The comparison carries a
    floating-point slack of 1e-10*(1 + eta^2 + delta^2) because equality is
    exact on the quadratic branch.
    """
    h = params.h
    tau_arr = _finite_array(tau, "tau")
    if np.any(tau_arr < 0) or np.any(tau_arr > h):
        raise ValueError(f"tau must lie in [0, h]; got tau={tau!r} with h={h}")
    eta = _finite_array(eta, "eta")
    delta = _finite_array(delta, "delta")
    lhs = (
        huber_penalty(eta + delta, params)
        - huber_penalty(eta, params)
        - huber_penalty_deriv(eta, params) * delta
    )
    active = (np.abs(eta) <= h - tau_arr) & (np.abs(delta) <= tau_arr)
    rhs = 0.5 * delta * delta * active
    slack = 1e-10 * (1.0 + eta * eta + delta * delta)
    out = np.greater_equal(lhs, rhs - slack)
    return bool(out) if np.ndim(out) == 0 else out
