"""Per-layer spans for robust_huber, taken from outside the package.

Each layer's public functions are wrapped where the calling module binds
them (``robust_huber.estimators.prox_nuclear`` is the name the PCA composite
looks up on every prox step), for the length of a traced pass only.  Pool
workers are never traced: traced passes run serially.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

import numpy as np

from spans import Tracer, median, iqr

# span name -> (module, attribute) pairs it wraps
LAYERS = {
    "prox.nuclear": [("estimators", "prox_nuclear")],
    "prox.nuclear_norm": [("estimators", "nuclear_norm"), ("verification", "nuclear_norm")],
    "prox.l1": [("estimators", "prox_l1")],
    "prox.project_maxnorm": [("solver", "project_maxnorm"), ("estimators", "project_maxnorm")],
    "estimators.estimate": [
        ("experiments", "estimate_pca"),
        ("experiments", "estimate_sparse_regression"),
        ("lowerbound", "estimate_pca"),
    ],
    "estimators.build_composite": [
        ("estimators", "build_regression_composite"),
        ("estimators", "build_pca_composite"),
        ("verification", "build_regression_composite"),
        ("verification", "build_pca_composite"),
    ],
    "estimators.certify": [
        ("estimators", "certify_against_reference"),
        ("verification", "certify_against_reference"),
    ],
    "datagen.build": [
        ("experiments", "make_regression_instance"),
        ("experiments", "make_gaussian_design_instance"),
        ("experiments", "make_pca_instance"),
        ("experiments", "gen_matrix_completion_scenario"),
        ("lowerbound", "make_pca_instance"),
    ],
    "huber.loss": [("estimators", "huber_loss"), ("verification", "huber_loss")],
    "huber.grad": [("estimators", "huber_loss_grad"), ("verification", "huber_loss_grad")],
    "solver": [("estimators", "solve_fista"), ("estimators", "solve_split")],
    "verification.cert": [("experiments", "assemble_certificate")],
    "verification.decomposability": [("verification", "check_decomposability")],
    "verification.contraction": [("verification", "measure_contraction")],
    "verification.rsc": [("verification", "estimate_rsc")],
    "verification.re": [("verification", "check_re_property")],
    "lowerbound.phase_trial": [("experiments", "phase_trial")],
}
ROOT_SPAN = "experiments"
CONE_CLASSES = ("SparseCone", "LowRankCone")


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _record_rank(tracer: Tracer):
    def on_result(out, args, kwargs):
        tracer.samples["prox.nuclear_rank_frac"].append(
            np.linalg.matrix_rank(out) / min(out.shape)
        )

    return on_result


def _record_solve(tracer: Tracer):
    """Convergence of each SolveResult: residual <= rel_tol counts as
    converged; a cap hit is a solve that ran out of iterations first."""
    from robust_huber.solver import SolverConfig

    def on_result(out, args, kwargs):
        _, result = out
        config = _arg(args, kwargs, 2, "config", SolverConfig())
        converged = result.residual <= config.rel_tol
        tracer.samples["solve"].append(
            (
                result.iterations,
                converged,
                not converged and result.iterations >= config.max_iters,
                result.reference_dominated,
            )
        )

    return on_result


def _record_rsc(tracer: Tracer):
    def on_result(out, args, kwargs):
        tracer.counts["rsc_feasible"] += _arg(args, kwargs, 3, "trials")

    return on_result


def _count_cone_samples(tracer: Tracer, fn):
    def sample(self, rng):
        if tracer.inside("verification.rsc"):
            tracer.counts["rsc_attempted"] += 1
        return fn(self, rng)

    return sample


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer for the duration of the block, then restore."""
    hooks = {
        "prox.nuclear": _record_rank(tracer),
        "estimators.estimate": _record_solve(tracer),
        "verification.rsc": _record_rsc(tracer),
    }
    verification = importlib.import_module("robust_huber.verification")
    saved = []
    try:
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                module = importlib.import_module(f"robust_huber.{module_name}")
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, tracer.wrap(name, fn, hooks.get(name)))
        for cls_name in CONE_CLASSES:
            cls = getattr(verification, cls_name)
            saved.append((cls, "sample", cls.sample))
            cls.sample = _count_cone_samples(tracer, cls.sample)
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass, as name -> (value, unit)."""
    self_s = tracer.self_times()
    total_s = tracer.total_times()
    calls = tracer.counts
    solves = tracer.samples["solve"]
    ranks = tracer.samples["prox.nuclear_rank_frac"]
    nuclear_ms = [
        1000.0 * (end - start) for name, start, end, _ in tracer.spans if name == "prox.nuclear"
    ]
    iterations = sum(s[0] for s in solves)
    dominated = [s[3] for s in solves if s[3] is not None]

    def per_pass(x):
        return x / passes

    def self_time(name):
        return (per_pass(self_s.get(name, 0.0)), "s")

    def count(key):
        return (per_pass(calls[key]), "count")

    return {
        "prox.nuclear_s": self_time("prox.nuclear"),
        "prox.nuclear_calls": count("prox.nuclear"),
        "prox.nuclear_ms.p50": (median(nuclear_ms), "ms"),
        "prox.nuclear_rank_frac.p50": (median(ranks), "ratio"),
        "prox.nuclear_rank_frac.iqr": (iqr(ranks), "ratio"),
        "prox.nuclear_norm_s": self_time("prox.nuclear_norm"),
        "prox.nuclear_norm_calls": count("prox.nuclear_norm"),
        "prox.l1_s": self_time("prox.l1"),
        "prox.l1_calls": count("prox.l1"),
        "prox.project_maxnorm_s": self_time("prox.project_maxnorm"),
        "estimators.build_composite_s": self_time("estimators.build_composite"),
        "estimators.certify_s": self_time("estimators.certify"),
        "estimators.dominated_frac": (
            sum(dominated) / len(dominated) if dominated else 0.0, "ratio"
        ),
        "datagen.build_s": self_time("datagen.build"),
        "datagen.calls": count("datagen.build"),
        "huber.loss_s": self_time("huber.loss"),
        "huber.loss_calls": count("huber.loss"),
        "huber.grad_s": self_time("huber.grad"),
        "huber.grad_calls": count("huber.grad"),
        "solver.self_s": self_time("solver"),
        "solver.ms_per_iter": (
            1000.0 * total_s.get("solver", 0.0) / iterations if iterations else 0.0, "ms/iter"
        ),
        "solver.iterations": (per_pass(iterations), "count"),
        "solver.cap_hits": (per_pass(sum(s[2] for s in solves)), "count"),
        "solver.converged_frac": (
            sum(s[1] for s in solves) / len(solves) if solves else 0.0, "ratio"
        ),
        "verification.cert_s": self_time("verification.cert"),
        "verification.decomposability_s": self_time("verification.decomposability"),
        "verification.contraction_s": self_time("verification.contraction"),
        "verification.rsc_s": self_time("verification.rsc"),
        "verification.re_s": self_time("verification.re"),
        "verification.rsc_calls": count("verification.rsc"),
        "verification.rsc_samples_attempted": count("rsc_attempted"),
        "verification.rsc_feasible_frac": (
            calls["rsc_feasible"] / calls["rsc_attempted"] if calls["rsc_attempted"] else 0.0,
            "ratio",
        ),
        "lowerbound.phase_trial_s": self_time("lowerbound.phase_trial"),
        "experiments.self_s": self_time(ROOT_SPAN),
    }
