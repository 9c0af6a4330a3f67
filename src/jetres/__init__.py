"""jetres: exact tautological intersection numbers on jet-differential towers.

Torus fixed-point localization and iterated residues at infinity, over exact
rational arithmetic, with a positivity-certificate pipeline for the degree
thresholds they feed.  See README.md for the CLI and the acceptance suite.
"""

from .exactalg import DPoly, MultiPoly, Q, VarContext

__version__ = "0.1.0"

__all__ = ["Q", "MultiPoly", "VarContext", "DPoly", "__version__"]
