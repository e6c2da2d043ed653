"""The paper's recursive mechanism as a registry entry.

The only mechanism in the registry that honors **node** differential
privacy (and the only one supporting arbitrary positive relational-algebra
queries).  ``prepare`` does the expensive work — building the Fig. 2
sensitive K-relation and compiling the φ-epigraph LP
(:class:`~repro.relax.encode.EncodedRelation` →
:class:`~repro.lp.compiled.CompiledProgram`) — and the resulting
:class:`PreparedRecursive` is exactly what the session cache reuses:
repeated releases skip re-encode/re-compile *and* inherit the warm
``H``/``G`` entry caches and earlier X-step decisions, so a warm query
usually pays only noise: the X-step overlay solve runs only when no
earlier release brackets the new ``Δ̂``.
"""

from __future__ import annotations

from ..core.efficient import EfficientRecursiveMechanism
from ..core.params import RecursiveMechanismParams
from ..results import ResultBase
from ..rng import RngLike
from .base import Mechanism, PreparedQuery, QuerySpec, register

__all__ = ["RecursiveMechanism", "PreparedRecursive"]


class PreparedRecursive(PreparedQuery):
    """A compiled recursive-mechanism query, ready for repeated release."""

    def __init__(self, spec: QuerySpec, mechanism: EfficientRecursiveMechanism):
        super().__init__(spec)
        #: The underlying :class:`EfficientRecursiveMechanism` (exposes
        #: the ``lp_size`` diagnostic and the entry caches).
        self.mechanism = mechanism

    @property
    def true_answer(self) -> float:
        """``q(supp(R))`` — the exact count, no LP solve needed."""
        return self.mechanism.true_answer()

    def _release(self, epsilon, rng: RngLike, params) -> ResultBase:
        if params is None:
            params = RecursiveMechanismParams.paper(
                epsilon, node_privacy=self.spec.node_privacy
            )
        return self.mechanism.run(params, rng)


@register
class RecursiveMechanism(Mechanism):
    """Recursive mechanism (Chen & Zhou): node- or edge-DP, any linear query.

    Options (all optional): ``bounding`` (``"paper"``/``"uniform"``/
    ``"auto"``), ``normalize``, ``s_bar`` — forwarded to
    :class:`~repro.core.efficient.EfficientRecursiveMechanism`.  Every
    solve runs in-process on the persistent HiGHS models; a session's
    ``workers`` fans whole releases across its pool instead.
    """

    name = "recursive"
    aliases = ("recursive-mechanism",)
    privacy_models = ("node", "edge")

    def __init__(
        self,
        data,
        bounding: str = "auto",
        normalize: bool = False,
        s_bar=None,
    ):
        super().__init__(data, bounding=bounding, normalize=normalize, s_bar=s_bar)

    def _prepare(self, spec: QuerySpec) -> PreparedRecursive:
        relation = self._relation_for(spec)
        mechanism = EfficientRecursiveMechanism(
            relation,
            query=spec.weight,
            normalize=self.options["normalize"],
            bounding=self.options["bounding"],
            s_bar=self.options["s_bar"],
        )
        return PreparedRecursive(spec, mechanism)
