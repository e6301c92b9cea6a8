"""Tests for the between-treatment variance component in one-way random
effects models: a normal-calibrated test built on a decomposition of the
pooled pairwise variance, the classical ANOVA F-test, a permutation
calibration, and a Monte Carlo lab for size/power studies."""

from . import core, randgen, simlab
from .core import *  # noqa: F401,F403
from .randgen import *  # noqa: F401,F403
from .simlab import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*core.__all__, *randgen.__all__, *simlab.__all__]
