"""Piecewise-linear solver for alpha-dissipative Hunter-Saxton solutions.

The pipeline: project an initial datum onto a uniform grid (projection),
lift the projected pair to characteristic coordinates (lagrangian), evolve
in closed form between wave-breaking events while removing the fraction
alpha of concentrating energy at each event (evolution), and push the result
back to a wave profile with its energy measure (pushforward).  Reference
solutions, the Wasserstein-1 energy distance (metrics) and the
convergence-study harness measure the scheme's errors.  The evaluators and
estimators that only the verification suite uses (the two-peak datum's
closed form, the scalar reference evaluators by root finding, L² and sampled
sup distances, the Besov seminorm of the datum's slope, the projection error)
live in its ``tests/oracles.py``.

The package exports each layer module's ``__all__``, and only that; each
star import also binds the module itself as an attribute of the package.
"""

from .errors import *
from .eulerian import *
from .evolution import *
from .harness import *
from .lagrangian import *
from .metrics import *
from .projection import *
from .pushforward import *
from .reference import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += eulerian.__all__
__all__ += evolution.__all__
__all__ += harness.__all__
__all__ += lagrangian.__all__
__all__ += metrics.__all__
__all__ += projection.__all__
__all__ += pushforward.__all__
__all__ += reference.__all__
