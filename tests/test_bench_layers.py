"""The per-layer tracer's targets: every (module, attribute) pair that
perfbench/layers.py wraps exists, is wrapped inside the block, and is the
original object again after it.  A renamed or deleted target would otherwise
show only as a crash of ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_layers(monkeypatch):
    # as run.py does: perfbench/ on sys.path, so `from spans import ...` resolves
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def wrapped_targets(layers):
    """(owner, attribute) for every layer target and every cone sampler."""
    targets = [
        (importlib.import_module(f"robust_huber.{module}"), attr)
        for pairs in layers.LAYERS.values()
        for module, attr in pairs
    ]
    verification = importlib.import_module("robust_huber.verification")
    targets += [(getattr(verification, name), "sample") for name in layers.CONE_CLASSES]
    return targets


def test_instrument_wraps_every_target_and_restores_it(monkeypatch):
    layers = load_layers(monkeypatch)
    from spans import Tracer

    targets = wrapped_targets(layers)
    originals = [getattr(owner, attr) for owner, attr in targets]
    with layers.instrument(Tracer()):
        for (owner, attr), original in zip(targets, originals):
            assert getattr(owner, attr) is not original, (owner, attr)
    for (owner, attr), original in zip(targets, originals):
        assert getattr(owner, attr) is original, (owner, attr)


def test_traced_regression_certificate_counts_its_rsc_samples(monkeypatch):
    # the RSC hooks read estimate_rsc's trials (its 4th argument) and the cone
    # samples drawn inside it; a regression cone has no box, so all are feasible
    layers = load_layers(monkeypatch)
    from spans import Tracer
    from robust_huber import experiments

    config = PERFBENCH.parent / "configs" / "accept06_meta_regression.ini"
    spec = experiments.ExperimentSpec.from_config(config)
    _, _, p, instance_seed = next(spec.trials())
    with layers.instrument(Tracer()) as tracer:
        experiments.run_certificate(spec, p, instance_seed)
    counts = tracer.counts
    assert counts["verification.cert"] == 1
    assert counts["verification.rsc"] > 0
    assert counts["rsc_feasible"] == counts["rsc_attempted"] > 0
    # one composite, problem_kind's, for both the solve and the certificate
    assert counts["estimators.build_composite"] == 1


def test_traced_phase_trials_count_one_span_of_each_layer_per_trial(monkeypatch):
    # the table's builder draws each phase instance (through lowerbound's
    # make_pca_instance) and phase_trial solves it (through lowerbound's estimate_pca)
    layers = load_layers(monkeypatch)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent))
    from spans import Tracer
    from test_lowerbound import phase_spec
    from robust_huber import experiments

    spec = phase_spec()
    with layers.instrument(Tracer()) as tracer:
        rows = experiments.run_experiment(spec)
    assert len(rows) == 4 and not any(row.error for row in rows)
    for name in ("datagen.build", "estimators.estimate", "lowerbound.phase_trial",
                 "solver", "estimators.build_composite"):
        assert tracer.counts[name] == 4, name
