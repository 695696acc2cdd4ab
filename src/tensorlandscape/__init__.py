"""Landscape complexity of spiked tensor PCA.

Closed-form critical-point and local-maximum complexity surfaces, the SNR
thresholds they encode, exact finite-n count estimation by Kac-Rice Monte
Carlo, and direct sphere-constrained simulation of the tensor objective.
"""

from . import complexity, kacrice, scan, simulate, thresholds
from .complexity import *  # noqa: F403
from .kacrice import *  # noqa: F403
from .scan import *  # noqa: F403
from .simulate import *  # noqa: F403
from .thresholds import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = (complexity.__all__ + kacrice.__all__ + scan.__all__
           + simulate.__all__ + thresholds.__all__)
