"""Baseline mechanisms the paper compares against (Fig. 1, Fig. 4, Fig. 7).

All baselines provide **edge** differential privacy only (that is the
paper's point of comparison — none of them can achieve node privacy with
nontrivial utility):

* :mod:`~repro.baselines.laplace` — the global-sensitivity Laplace
  mechanism (Dwork et al., TCC 2006), usable whenever GS is finite.
* :mod:`~repro.baselines.smooth` — the smooth-sensitivity framework of
  Nissim, Raskhodnikova & Smith (STOC 2007): β-smooth upper bounds on
  local sensitivity, Cauchy noise for ε-DP, Laplace for (ε,δ)-DP.
* :mod:`~repro.baselines.triangles_nrs` — NRS07's smooth sensitivity of
  the triangle count.
* :mod:`~repro.baselines.kstar_karwa` — Karwa et al. (PVLDB 2011) k-star
  counting (ε-DP via smooth sensitivity of the degree-driven bound).
* :mod:`~repro.baselines.ktriangle_karwa` — Karwa et al. k-triangle
  counting ((ε,δ)-DP via a noisy local-sensitivity bound).
* :mod:`~repro.baselines.rhms` — Rastogi et al. (PODS 2009) output
  perturbation for arbitrary connected subgraphs ((ε,γ)-adversarial
  privacy; noise scale ``Θ((k·l²·ln|V|)^{l-1}/ε)`` as characterized in the
  paper's Fig. 1).

These are re-implementations from the published descriptions (no reference
code is available offline); the README section "Deviations from the paper"
records the reconstruction decisions.  Each returns a :class:`BaselineResult` so the experiment
harness treats every mechanism uniformly.
"""

from .common import BaselineResult
from .kstar_karwa import KarwaKStarMechanism
from .ktriangle_karwa import KarwaKTriangleMechanism
from .laplace import GlobalSensitivityLaplace, laplace_mechanism
from .rhms import RHMSMechanism
from .smooth import SmoothSensitivity, cauchy_noise_release, laplace_noise_release
from .triangles_nrs import NRSTriangleMechanism, triangle_local_sensitivity_at_distance

__all__ = [
    "BaselineResult",
    "GlobalSensitivityLaplace",
    "laplace_mechanism",
    "SmoothSensitivity",
    "cauchy_noise_release",
    "laplace_noise_release",
    "NRSTriangleMechanism",
    "triangle_local_sensitivity_at_distance",
    "KarwaKStarMechanism",
    "KarwaKTriangleMechanism",
    "RHMSMechanism",
]
