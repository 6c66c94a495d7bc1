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
