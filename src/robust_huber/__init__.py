"""Huber-loss estimators that stay consistent under oblivious outliers.

Sparse regression with an l1 penalty and low-rank recovery with a nuclear
penalty inside a max-norm box, both built on the Huber loss; plus numerical
certificates for the conditions behind their error bounds, noise generators
covering heavy-tailed and adversarial families, a phase experiment at the
weak-recovery threshold, and a reproducible batch-experiment harness.

The package root exports the public names (each module's ``__all__``) of
huber, prox, solver, estimators, datagen, verification and experiments.
"""

from .huber import *  # noqa: F401,F403
from .prox import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .datagen import *  # noqa: F401,F403
from .verification import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403

__version__ = "0.1.0"
