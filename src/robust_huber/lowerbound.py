"""Phase experiment around the weak-recovery threshold alpha ~ sqrt(r/n).

The generative model: a flat +-rho/n low-rank signal plus entrywise noise
that is zero with probability a and +-2m with probability a*q^m.  The inlier
rate a is tied to the shape parameter xi by a = xi*sqrt(r)/(2*sqrt(n)-xi*sqrt(r)).
Below the threshold no algorithm can achieve small relative error; this module
only demonstrates the phase empirically against the Huber estimator, which is
one algorithm, not all of them.  The impossibility statement itself lives at
xi <= 1/2; larger xi values are still a valid noise law (up to
xi*sqrt(r) = sqrt(n)) and are what the recovery side of the phase diagram uses.

The maps between a and xi (lb_alpha_of_xi, lb_xi_of_alpha) live in datagen,
beside the noise law.  The sweep over alpha runs through the experiment runner
as the `lowerbound_phase` scenario: its table row checks a config's points with
`check_phase_instance`, builds each trial's instance with `phase_instance`,
and `phase_trial` solves that instance.
"""

from __future__ import annotations

from .datagen import NoiseSpec, check_pca_instance, make_pca_instance
from .estimators import EstimatorConstants, PcaProblem, estimate_pca, frobenius_error
from .solver import SolveResult, SolverConfig

__all__ = ["phase_instance", "check_phase_instance", "phase_trial"]

PHASE_ZETA = 1.0  # the construction normalizes 0 <= zeta <= rho/n = 1
PHASE_RHO_OVER_N = 1.0


def _model(n: int, r: int, alpha: float) -> dict:
    """make_pca_instance's keyword arguments but the seed, at inlier rate alpha."""
    noise = NoiseSpec(family="lb_geometric_even", alpha=alpha, zeta=PHASE_ZETA)
    return dict(n=n, r=r, noise=noise, rho_over_n=PHASE_RHO_OVER_N, l_scale=1.0)


def phase_instance(n: int, r: int, alpha: float, seed: int) -> PcaProblem:
    """One draw of the generative model at inlier rate alpha."""
    return make_pca_instance(**_model(n, r, alpha), seed=seed)


def check_phase_instance(n: int, r: int, alpha: float) -> None:
    """Raise ValueError where phase_instance would; draws nothing."""
    check_pca_instance(**_model(n, r, alpha))


def phase_trial(
    problem: PcaProblem, constants: EstimatorConstants, config: SolverConfig
) -> tuple[float, SolveResult]:
    """Solve one draw of the generative model: its relative error, and the
    solver's result."""
    L_hat, result = estimate_pca(problem, constants, config)
    # rho = n * (rho/n) = n here, so error <= eps*rho reads rel_error <= eps
    return frobenius_error(problem, L_hat) / problem.n, result
