"""Mechanism protocol, query specs, and the registry core.

A *mechanism* is anything that can privately release a statistic of the
session's data.  This module defines the uniform contract the serving
layer (:mod:`repro.session`), the experiment harness, and the CLI dispatch
through:

* :class:`QuerySpec` — what to answer: a subgraph pattern (or the wrapped
  K-relation itself), the privacy model, and an optional per-tuple weight;
* :class:`Mechanism` — constructed over the sensitive data once, turns a
  spec into a :class:`PreparedQuery` (all expensive per-query
  precomputation: match enumeration, K-relation encoding, LP compilation,
  smooth-sensitivity statistics);
* :class:`PreparedQuery` — the cacheable product; ``release(epsilon, rng)``
  is the only part that spends privacy budget and draws noise;
* :func:`register` / :func:`get` / :func:`available` — the name registry
  (``repro.mechanisms.get("recursive")``).

Every ``release`` returns a :class:`~repro.results.ResultBase`, so callers
handle the recursive mechanism and every baseline identically.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from ..core.queries import LinearQuery
from ..core.sensitive import SensitiveKRelation
from ..errors import MechanismError, PrivacyParameterError
from ..graphs.graph import Graph
from ..results import ResultBase
from ..rng import RngLike
from ..subgraphs.patterns import Pattern, k_star, k_triangle, triangle
from ..validation import validate_epsilon

__all__ = [
    "QuerySpec",
    "PreparedQuery",
    "Mechanism",
    "register",
    "get",
    "available",
    "describe",
    "resolve_pattern",
]

PRIVACY_MODELS = ("node", "edge")


def resolve_pattern(query) -> Pattern:
    """Coerce a query argument to a :class:`Pattern`.

    Accepts a :class:`Pattern` unchanged, or one of the paper's query
    names: ``"triangle"``, ``"<k>-star"``, ``"<k>-triangle"``, each
    resolved to one shared pattern object (every release of a served
    query resolves its name, in the submitting process and again in the
    worker that runs it).
    """
    if isinstance(query, Pattern):
        return query
    if isinstance(query, str):
        return _named_pattern(query)
    raise MechanismError(
        f"query must be a Pattern or a query name string, got {query!r}"
    )


@functools.lru_cache(maxsize=64)
def _named_pattern(query: str) -> Pattern:
    if query == "triangle":
        return triangle()
    match = re.fullmatch(r"(\d+)-star", query)
    if match:
        return k_star(int(match.group(1)))
    match = re.fullmatch(r"(\d+)-triangle", query)
    if match:
        return k_triangle(int(match.group(1)))
    raise MechanismError(f"unknown query {query!r}")


def _weight_token(weight: Optional[LinearQuery]):
    """Cache token for a per-tuple weight (identity-based when custom)."""
    if weight is None:
        return None
    return ("weight", id(weight))


@dataclass(frozen=True, eq=False)
class QuerySpec:
    """One private query: what statistic, under which privacy model.

    ``pattern`` is the query subgraph for graph-wrapping sessions, or
    ``None`` when the session wraps a prebuilt
    :class:`~repro.core.sensitive.SensitiveKRelation` directly.  ``weight``
    is the nonnegative per-tuple weight ``q+`` (``None`` = counting).
    """

    pattern: Optional[Pattern]
    privacy: str = "edge"
    weight: Optional[LinearQuery] = None

    @classmethod
    def of(
        cls, query, privacy: str = "edge", weight: Optional[LinearQuery] = None
    ) -> "QuerySpec":
        """Build a spec from a query argument.

        ``query`` may be a :class:`Pattern`, a query-name string
        (``"triangle"``, ``"2-star"``, …), a
        :class:`~repro.core.queries.LinearQuery` (relation sessions:
        the weight *is* the query), or ``None`` (relation sessions:
        plain counting).
        """
        if privacy not in PRIVACY_MODELS:
            raise PrivacyParameterError(
                f"privacy must be one of {PRIVACY_MODELS}, got {privacy!r}"
            )
        if isinstance(query, LinearQuery):
            if weight is not None:
                raise MechanismError(
                    "pass the linear query either positionally or as "
                    "weight=, not both"
                )
            return cls(pattern=None, privacy=privacy, weight=query)
        if query is None:
            return cls(pattern=None, privacy=privacy, weight=weight)
        return cls(pattern=resolve_pattern(query), privacy=privacy, weight=weight)

    @property
    def node_privacy(self) -> bool:
        """Whether this spec asks for node (vs edge) differential privacy."""
        return self.privacy == "node"

    def cache_key(self) -> tuple:
        """Hashable identity for the compiled-relation cache.

        Combines the pattern token (semantic for unconstrained patterns),
        the privacy model, and the weight token — everything that changes
        the *compiled* LP structure.  Privacy-budget parameters (``ε``,
        mechanism params) are deliberately excluded: the compiled relation
        is reusable across budgets.
        """
        pattern_token = (
            ("relation",) if self.pattern is None else self.pattern.cache_token
        )
        return (pattern_token, self.privacy, _weight_token(self.weight))

    def describe(self) -> str:
        """Short human-readable form for ledgers and tables."""
        target = self.pattern.name if self.pattern is not None else "relation"
        return f"{target}/{self.privacy}"


class PreparedQuery:
    """A query with all expensive precomputation done, ready to release.

    Subclasses implement :meth:`_release`; the base validates ``epsilon``
    uniformly.  Instances are cached by the session layer and reused
    across releases — only :meth:`release` consumes randomness.
    """

    def __init__(self, spec: QuerySpec):
        self.spec = spec

    @property
    def true_answer(self) -> float:
        """The exact (non-private) answer — diagnostics only."""
        raise NotImplementedError

    def release(self, epsilon, rng: RngLike = None, params=None) -> ResultBase:
        """Spend ``epsilon`` and release one noisy answer.

        ``params`` (a :class:`~repro.core.params.RecursiveMechanismParams`)
        overrides the paper's settings for the recursive mechanism;
        baselines reject it.
        """
        if params is None:
            epsilon = validate_epsilon(epsilon)
        return self._release(epsilon, rng, params)

    def _release(self, epsilon, rng: RngLike, params) -> ResultBase:
        """Implementation hook: produce one release."""
        raise NotImplementedError


class Mechanism:
    """Base class of every registered mechanism.

    Subclasses set :attr:`name` (registry key), optional :attr:`aliases`,
    and :attr:`privacy_models`, and implement :meth:`_prepare`.  The
    shared entry points are :meth:`prepare` (cacheable precomputation) and
    the uniform one-shot :meth:`run` signature
    ``run(query, epsilon, rng)``.

    Every solver-backed mechanism solves its LPs on the persistent HiGHS
    models (:mod:`repro.lp.highs_engine`); the solver is not an option.
    """

    #: Registry key (e.g. ``"recursive"``).
    name: str = ""
    #: Alternate registry keys resolving to this class.
    aliases: Tuple[str, ...] = ()
    #: Privacy models this mechanism can honor.
    privacy_models: Tuple[str, ...] = ("edge",)

    def __init__(self, data, **options):
        self.data = data
        self.options = dict(options)

    def _graph(self) -> Graph:
        """The wrapped data as a graph, or a clear error."""
        if not isinstance(self.data, Graph):
            raise MechanismError(
                f"mechanism {self.name!r} answers subgraph queries over a "
                f"Graph; got {type(self.data).__name__}"
            )
        return self.data

    def _relation_for(self, spec: QuerySpec) -> SensitiveKRelation:
        """The sensitive K-relation for ``spec`` (built or passed through)."""
        if isinstance(self.data, SensitiveKRelation):
            if spec.pattern is not None:
                raise MechanismError(
                    "this session wraps a SensitiveKRelation; query it with "
                    "a LinearQuery (or None for counting), not a pattern"
                )
            return self.data
        if spec.pattern is None:
            raise MechanismError(
                "a graph-wrapping session needs a subgraph pattern (or "
                "query name) to answer"
            )
        from ..subgraphs.annotate import subgraph_krelation

        graph = self._graph()
        # Dynamic graphs (repro.dynamic.VersionedGraph) maintain their
        # occurrence relations incrementally under updates — preparing a
        # query over one reads the maintained relation instead of
        # re-enumerating from scratch.  The columnar store can go one step
        # further and hand back the relation in participant-index form
        # in canonical row order; custom per-tuple weights need the
        # materialized occurrences, so they take the occurrence path.
        if spec.weight is None:
            relation_provider = getattr(graph, "relation_for", None)
            if relation_provider is not None:
                relation = relation_provider(spec.pattern, spec.privacy)
                if relation is not None:
                    return relation
        provider = getattr(graph, "occurrences_for", None)
        occurrences = provider(spec.pattern) if provider is not None else None
        return subgraph_krelation(
            graph, spec.pattern, privacy=spec.privacy, occurrences=occurrences
        )

    def prepare(self, spec: QuerySpec) -> PreparedQuery:
        """Do all per-query precomputation; checks the privacy model."""
        if spec.privacy not in self.privacy_models:
            raise PrivacyParameterError(
                f"mechanism {self.name!r} supports "
                f"{'/'.join(self.privacy_models)} privacy only, "
                f"got {spec.privacy!r}"
            )
        return self._prepare(spec)

    def _prepare(self, spec: QuerySpec) -> PreparedQuery:
        """Implementation hook for :meth:`prepare`."""
        raise NotImplementedError

    def run(
        self,
        query,
        epsilon,
        rng: RngLike = None,
        *,
        privacy: str = "edge",
        weight: Optional[LinearQuery] = None,
        params=None,
    ) -> ResultBase:
        """One-shot: prepare ``query`` and release once.

        The registry-wide uniform signature.  For repeated queries over
        the same data, go through a :class:`~repro.session.PrivateSession`
        instead — it caches the prepared (compiled) query.
        """
        spec = QuerySpec.of(query, privacy=privacy, weight=weight)
        return self.prepare(spec).release(epsilon, rng, params=params)


_REGISTRY: Dict[str, Type[Mechanism]] = {}


def register(cls: Type[Mechanism]) -> Type[Mechanism]:
    """Class decorator: add a :class:`Mechanism` to the registry."""
    if not cls.name:
        raise MechanismError(f"mechanism class {cls.__name__} has no name")
    for key in (cls.name, *cls.aliases):
        existing = _REGISTRY.get(key)
        if existing is not None and existing is not cls:
            raise MechanismError(
                f"mechanism name {key!r} already registered to " f"{existing.__name__}"
            )
        _REGISTRY[key] = cls
    return cls


def get(name: str) -> Type[Mechanism]:
    """Look up a mechanism class by registry name or alias.

    >>> from repro.mechanisms import get
    >>> get("recursive").privacy_models
    ('node', 'edge')
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise MechanismError(
            f"unknown mechanism {name!r}; available: "
            f"{', '.join(available())}"
        ) from None


def available() -> Tuple[str, ...]:
    """Sorted primary (non-alias) registry names."""
    return tuple(sorted({cls.name for cls in _REGISTRY.values()}))


def describe() -> List[Dict[str, str]]:
    """One row per registered mechanism (for reports, docs, the CLI)."""
    rows = []
    for name in available():
        cls = _REGISTRY[name]
        doc = (cls.__doc__ or "").strip().splitlines()[0] if cls.__doc__ else ""
        rows.append(
            {
                "mechanism": name,
                "aliases": ", ".join(cls.aliases) or "-",
                "privacy": "/".join(cls.privacy_models),
                "summary": doc,
            }
        )
    return rows
