"""Two-sided streaming-market toolkit.

Static logit equilibria, coupled viewer/quality dynamics, welfare
accounting with promotion-share optimization, an agent-based platform
simulation with policy interventions, evaluation metrics, and an
experiment harness with a CLI (``headfx``).

The package republishes the public interface, the ``__all__``, of each
of those modules.
"""

from .core import *  # noqa: F401,F403
from .equilibrium import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .abm import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .welfare import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"
