"""HOOI, STHOSVD and the performance model.

* :mod:`repro.hooi.decomposition` — the ``{G; F_1..F_N}`` container, error
  metrics (explicit and the orthonormal-factor norm identity).
* :mod:`repro.hooi.sthosvd` — sequentially truncated HOSVD, the paper's
  initial-decomposition method, in sequential and distributed forms.
* :mod:`repro.hooi.hooi` — the tree-free HOOI reference step (Figure 2 of
  the paper), the test oracle for the session's tree execution.
* :mod:`repro.hooi.model` — metadata-only predictions of load, volume and
  alpha-beta time for a plan; powers the large benchmark sweeps.

Decompositions themselves run through :class:`repro.session.TuckerSession`.
"""

from repro.hooi.decomposition import TuckerDecomposition
from repro.hooi.sthosvd import sthosvd, dist_sthosvd, sthosvd_grid_plan
from repro.hooi.hooi import hooi_reference_step
from repro.hooi.model import ModelReport, predict
from repro.hooi.portfolio import PortfolioChoice, select_plan

__all__ = [
    "TuckerDecomposition",
    "sthosvd",
    "dist_sthosvd",
    "sthosvd_grid_plan",
    "PortfolioChoice",
    "select_plan",
    "hooi_reference_step",
    "ModelReport",
    "predict",
]
