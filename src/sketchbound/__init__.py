"""Error bounds for low-rank approximation with general Gaussian sketches.

The package computes the deterministic and in-expectation bounds on the
projected residual gap of a sketched low-rank approximation, their
closed-form randomized-SVD specializations, reference baselines, and the
Monte Carlo machinery to verify every bound against empirical errors.
"""

from .deterministic import *  # noqa: F403
from .expectation import *  # noqa: F403
from .experiments import *  # noqa: F403
from .linalg import *  # noqa: F403
from .rsvd import *  # noqa: F403
from .sketching import *  # noqa: F403

__version__ = '0.1.0'
