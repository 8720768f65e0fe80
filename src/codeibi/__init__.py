"""Identity-based identification and signatures from binary Goppa codes.

The pieces, bottom up: arithmetic in GF(2^m) and its polynomial ring,
bit vectors and matrices over GF(2), Goppa codes with an algebraic
decoder, trapdoor encryption and counter-based signatures on top of
them, a three-pass zero-knowledge identification protocol, the
identity-based layer tying the two together, an empirical attack
harness, and a wire format plus CLI.

Each module's __all__ is its public API; the package re-exports them all.
The wire layer's names resolve on first use, so ``python -m
codeibi.wirecli`` runs that module once, as ``__main__``, and not also
as an import.
"""

import importlib as _importlib

from .binmat import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .gf2m import *  # noqa: F401,F403
from .goppa import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .ibi import *  # noqa: F401,F403
from .mcfs import *  # noqa: F401,F403
from .niederreiter import *  # noqa: F401,F403
from .stern import *  # noqa: F401,F403

__version__ = "0.1.0"


def __getattr__(name):
    wirecli = _importlib.import_module(".wirecli", __name__)
    if name in wirecli.__all__:
        return getattr(wirecli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
