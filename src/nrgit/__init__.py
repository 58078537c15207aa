"""Exact Hilbert-Mumford stability computations for non-reductive actions.

The core is a generic rank-2 torus engine over the coefficient domain
a*N + b (N a formal large parameter), plus a complete treatment of n
unordered points on the projective line acted on by the Borel subgroup
of SL(2): closed-form classification, a strong ample envelope inside
P^2 x P^n with brute-force cross-checks, wall-and-chamber variation of
the linearization, and flip data at interior walls.

Each module names its public surface in its own __all__, next to the code
that defines it; the package imports every module and re-exports those
names, so `from nrgit import *` binds them and __version__.
"""

from . import polytope, hilbert_mumford, binary_forms, envelope, vgit, oracle
from .polytope import *  # noqa: F403
from .hilbert_mumford import *  # noqa: F403
from .binary_forms import *  # noqa: F403
from .envelope import *  # noqa: F403
from .vgit import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += polytope.__all__
__all__ += hilbert_mumford.__all__
__all__ += binary_forms.__all__
__all__ += envelope.__all__
__all__ += vgit.__all__
__all__ += oracle.__all__
