"""Uniform entry-point validation of user-supplied parameters.

Every public entry point (the one-shot API wrappers, ``PrivateSession``,
the mechanism registry, the CLI, and the experiment harness) funnels its
``epsilon`` and ``workers`` arguments through these two helpers, so an
invalid value fails immediately with one clear :class:`ValueError` message
instead of surfacing later as a NaN answer or a cryptic LP failure.
(:class:`~repro.errors.PrivacyParameterError` subclasses both
:class:`ValueError` and the library's :class:`~repro.errors.MechanismError`,
so either ``except`` style catches it.)

The structured-input validators live here too: the ``repro batch`` JSON
workload spec (:func:`validate_batch_spec`), the ``repro serve
--datasets`` config (:func:`validate_serve_config`) and the network
service's wire requests (:func:`validate_service_request`) are checked
field by field — unknown keys and wrong types are rejected with the
offending field's path in the message, never a deep traceback from the
middle of the mechanism stack.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from .errors import PrivacyParameterError

__all__ = [
    "validate_epsilon",
    "validate_workers",
    "validate_batch_spec",
    "validate_serve_config",
    "validate_service_request",
]


def validate_epsilon(epsilon, name: str = "epsilon") -> float:
    """Validate a privacy budget value; returns it as a ``float``.

    Accepts any real number strictly greater than zero.  ``None``, NaN,
    infinities, non-numbers, and non-positive values all raise
    :class:`~repro.errors.PrivacyParameterError` (a :class:`ValueError`)
    with the same message shape, so every entry point reports budget
    mistakes identically.
    """
    if isinstance(epsilon, bool) or not isinstance(
        epsilon, (int, float, np.integer, np.floating)
    ):
        raise PrivacyParameterError(
            f"{name} must be a positive finite number, got {epsilon!r}"
        )
    value = float(epsilon)
    if not math.isfinite(value) or value <= 0:
        raise PrivacyParameterError(
            f"{name} must be a positive finite number, got {epsilon!r}"
        )
    return value


def validate_workers(count, name: str = "workers") -> Optional[int]:
    """Validate a worker count; returns ``None`` or an ``int >= 1``.

    ``None`` means "resolve from ``$REPRO_WORKERS`` / the CPU count"
    (:func:`repro.parallel.pool.resolve_workers`); anything else must be an
    integer ``>= 1``.  Zero, negative, fractional and non-integer values
    raise :class:`ValueError` with one clear message.
    """
    if count is None:
        return None
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValueError(
            f"{name} must be a positive integer (>= 1) or None, got {count!r}"
        )
    value = int(count)
    if value < 1:
        raise ValueError(
            f"{name} must be a positive integer (>= 1) or None, got {count!r}"
        )
    return value


# ---------------------------------------------------------------------------
# Structured-input validation (batch specs, wire requests)
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _is_positive_number(value) -> bool:
    return _is_number(value) and math.isfinite(float(value)) and float(value) > 0


def _is_positive_or_null(value) -> bool:
    return value is None or _is_positive_number(value)


def _check_fields(
    obj: Dict, path: str, fields: Dict[str, tuple], errors: List[str]
) -> None:
    """Validate one mapping against ``{key: (predicate, expectation)}``.

    Unknown keys and failed predicates each append one
    ``"path.key: ..."`` line to ``errors``.
    """
    for key in obj:
        if key not in fields:
            known = ", ".join(sorted(fields))
            errors.append(f"{path}{key}: unknown key (known keys: {known})")
    for key, (predicate, expectation) in fields.items():
        if key in obj and not predicate(obj[key]):
            errors.append(f"{path}{key}: must be {expectation}, got {obj[key]!r}")


def _check_graph(graph, path: str, errors: List[str]) -> None:
    """Validate one ``graph`` spec object (batch spec or dataset entry)."""
    _check_fields(graph, path + ".", _GRAPH_FIELDS, errors)
    if "edge_list" in graph and "dataset" in graph:
        errors.append(f"{path}: pass either edge_list or dataset, not both")


_GRAPH_FIELDS = {
    "nodes": (lambda v: _is_int(v) and v >= 1, "a positive integer"),
    "avgdeg": (_is_positive_number, "a positive number"),
    "seed": (_is_int, "an integer"),
    "edge_list": (lambda v: isinstance(v, str), "a file-path string"),
    "lenient": (
        lambda v: isinstance(v, bool),
        "a boolean (skip self-loop/duplicate edge-list lines)",
    ),
    "dataset": (lambda v: isinstance(v, str), "a dataset-name string"),
    "scale": (_is_positive_number, "a positive number"),
}

#: Option names that collide with the query call's own keyword arguments
#: — they must be given as top-level fields, never inside ``options``.
RESERVED_OPTION_KEYS = frozenset(
    {
        "query",
        "epsilon",
        "privacy",
        "mechanism",
        "label",
        "user",
        "seed",
        "rng",
        "params",
        "weight",
        "options",
    }
)


def _is_options_dict(value) -> bool:
    return (isinstance(value, dict)
            and all(isinstance(k, str) and k not in RESERVED_OPTION_KEYS
                    for k in value))


#: The dynamic-graph update vocabulary (kept in sync with
#: :data:`repro.dynamic.delta.DELTA_KINDS`; duplicated to keep this
#: module import-light).
UPDATE_ACTION_KINDS = ("add_node", "remove_node", "add_edge", "remove_edge")

_EDGE_ACTION_KINDS = ("add_edge", "remove_edge")


def _is_node_label(value) -> bool:
    """A node label as it appears in JSON: an int or a string."""
    return isinstance(value, (str, int, np.integer)) and not isinstance(value, bool)


def _check_update_action(action, path: str, errors: List[str]) -> None:
    """Validate one graph-update action object, field by field."""
    if not isinstance(action, dict):
        errors.append(f"{path}: must be an object, got {type(action).__name__}")
        return
    kind = action.get("action")
    if kind not in UPDATE_ACTION_KINDS:
        errors.append(
            f"{path}.action: must be one of "
            f"{', '.join(UPDATE_ACTION_KINDS)}, got {kind!r}"
        )
        return
    if kind in _EDGE_ACTION_KINDS:
        fields = {
            "action": (lambda v: True, ""),
            "u": (_is_node_label, "a node label (int or string)"),
            "v": (_is_node_label, "a node label (int or string)"),
        }
        _check_fields(action, path + ".", fields, errors)
        for endpoint in ("u", "v"):
            if endpoint not in action:
                errors.append(f"{path}.{endpoint}: required for {kind}")
    else:
        fields = {
            "action": (lambda v: True, ""),
            "node": (_is_node_label, "a node label (int or string)"),
        }
        if kind == "remove_node":
            # Emitted by GraphDelta.to_dict (audit export); accepted so
            # exported update logs can be replayed verbatim.  The server
            # re-captures the actual incident edges at application time.
            fields["removed_edges"] = (
                lambda v: isinstance(v, list),
                "a list of [u, v] pairs",
            )
        _check_fields(action, path + ".", fields, errors)
        if "node" not in action:
            errors.append(f"{path}.node: required for {kind}")


def _check_update_actions(actions, path: str, errors: List[str]) -> None:
    if not isinstance(actions, list) or not actions:
        errors.append(f"{path}: must be a non-empty array of update actions")
        return
    for index, action in enumerate(actions):
        _check_update_action(action, f"{path}[{index}]", errors)


_UPDATE_ITEM_FIELDS = {
    "update": (
        lambda v: isinstance(v, list) and len(v) > 0,
        "a non-empty array of update actions",
    ),
    "label": (lambda v: isinstance(v, str), "a string"),
}


_QUERY_ITEM_FIELDS = {
    "query": (
        lambda v: isinstance(v, str), 'a query-name string (e.g. "triangle", "2-star")'
    ),
    "epsilon": (_is_positive_number, "a positive finite number"),
    "privacy": (lambda v: v in ("node", "edge"), '"node" or "edge"'),
    "mechanism": (lambda v: isinstance(v, str), "a mechanism-name string"),
    "label": (lambda v: isinstance(v, str), "a string"),
    "user": (lambda v: isinstance(v, str), "a tenant-name string"),
    "seed": (_is_int, "an integer"),
    "options": (
        _is_options_dict,
        "an object with string keys (mechanism options only — "
        "query/epsilon/privacy/... are top-level fields)",
    ),
}


def _check_query_item(item, path: str, errors: List[str]) -> None:
    # Presence of query/epsilon is deliberately NOT enforced here: the
    # batch runner reports a missing field as that one item's failure and
    # keeps the rest of the workload going.
    if not isinstance(item, dict):
        errors.append(f"{path}: must be an object, got {type(item).__name__}")
        return
    if "update" in item:
        # An interleaved graph-update step, not a query.
        _check_fields(item, path + ".", _UPDATE_ITEM_FIELDS, errors)
        if isinstance(item["update"], list) and item["update"]:
            _check_update_actions(item["update"], f"{path}.update", errors)
        return
    _check_fields(item, path + ".", _QUERY_ITEM_FIELDS, errors)


_BATCH_TOP_FIELDS = {
    "graph": (lambda v: isinstance(v, dict), "an object"),
    "budget": (_is_positive_number, "a positive number"),
    "seed": (_is_int, "an integer"),
    "workers": (lambda v: _is_int(v) and v >= 1, "a positive integer"),
    "queries": (
        lambda v: isinstance(v, list) and len(v) > 0,
        "a non-empty array of query objects",
    ),
}


def validate_batch_spec(spec: Any) -> Dict:
    """Validate a ``repro batch`` JSON workload spec, field by field.

    Returns the spec unchanged when valid.  Raises :class:`ValueError`
    whose message lists **every** offending field with its path — unknown
    keys, wrong types, and missing required fields — so a workload author
    fixes the whole spec in one round trip instead of chasing tracebacks.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"batch spec must be a JSON object, got {type(spec).__name__}")
    errors: List[str] = []
    _check_fields(spec, "", _BATCH_TOP_FIELDS, errors)
    graph = spec.get("graph")
    if isinstance(graph, dict):
        _check_graph(graph, "graph", errors)
    if "queries" not in spec:
        errors.append("queries: required")
    elif isinstance(spec["queries"], list):
        for index, item in enumerate(spec["queries"]):
            _check_query_item(item, f"queries[{index}]", errors)
    if errors:
        raise ValueError("invalid batch spec:\n  " + "\n  ".join(errors))
    return spec


_SERVE_TOP_FIELDS = {
    "datasets": (
        lambda v: isinstance(v, dict) and len(v) > 0,
        "a non-empty object of {name: dataset entry}",
    ),
    "default": (lambda v: isinstance(v, str), "a dataset-name string"),
}

#: The keys of one ``--datasets`` entry (what ``repro serve`` reads).
_SERVE_DATASET_FIELDS = {
    "graph": (lambda v: isinstance(v, dict), "a graph object"),
    "updates": (lambda v: isinstance(v, bool), "a boolean"),
    "writer_token": (lambda v: v is None or isinstance(v, str), "a string"),
    "budget": (_is_positive_or_null, "a positive number (null: unlimited)"),
    "user_epsilon": (_is_positive_or_null, "a positive number (null: uncapped)"),
    "user_budgets": (
        lambda v: isinstance(v, dict) and all(
            isinstance(user, str) and _is_positive_number(cap)
            for user, cap in v.items()
        ),
        "an object of {user: positive number}",
    ),
    "seed": (lambda v: v is None or _is_int(v), "an integer"),
}


def validate_serve_config(config: Any) -> Dict:
    """Validate a ``repro serve --datasets`` JSON config, entry by entry.

    Returns the config unchanged when valid.  Raises :class:`ValueError`
    listing every offending field with its path — an unknown key or a
    non-object entry names its dataset (``datasets.<name>.<key>``), so a
    typo can never silently drop a budget cap.
    """
    if not isinstance(config, dict):
        raise ValueError(
            f"datasets config must be a JSON object, got {type(config).__name__}"
        )
    errors: List[str] = []
    _check_fields(config, "", _SERVE_TOP_FIELDS, errors)
    datasets = config.get("datasets")
    if datasets is None:
        errors.append("datasets: required")
    elif isinstance(datasets, dict):
        for name, entry in datasets.items():
            path = f"datasets.{name}"
            if not isinstance(entry, dict):
                errors.append(f"{path}: must be an object, got {entry!r}")
                continue
            _check_fields(entry, path + ".", _SERVE_DATASET_FIELDS, errors)
            if isinstance(entry.get("graph"), dict):
                _check_graph(entry["graph"], path + ".graph", errors)
        default = config.get("default")
        if isinstance(default, str) and default not in datasets:
            errors.append(
                f"default: dataset {default!r} is not in 'datasets' "
                f"({sorted(datasets)})"
            )
    if errors:
        raise ValueError("invalid datasets config:\n  " + "\n  ".join(errors))
    return config


#: Wire-protocol operations the service understands.  ``stats``,
#: ``snapshot``, and ``log`` arrived with protocol v2 (multi-dataset
#: routing + replication); the rest are the v1 vocabulary.
SERVICE_OPS = (
    "hello", "ping", "budget", "query", "audit", "update", "stats", "snapshot",
    "log", "metrics",
)


def _is_wire_seed(value) -> bool:
    if _is_int(value):
        return True
    if isinstance(value, dict):
        extra = set(value) - {"entropy", "spawn_key"}
        if extra or "entropy" not in value:
            return False
        if not (_is_int(value["entropy"]) and value["entropy"] >= 0):
            return False
        spawn_key = value.get("spawn_key", [])
        return (isinstance(spawn_key, list)
                and all(_is_int(k) and k >= 0 for k in spawn_key))
    return False


_SERVICE_COMMON_FIELDS = {
    "v": (_is_int, "an integer protocol version"),
    "id": (
        lambda v: isinstance(v, (str, int)) and not isinstance(v, bool),
        "a string or integer correlation id",
    ),
    "op": (lambda v: v in SERVICE_OPS, f"one of {', '.join(SERVICE_OPS)}"),
    # Protocol v2: every request frame may name its dataset (absent →
    # the server's default) and a consistency floor on its graph version.
    "dataset": (lambda v: isinstance(v, str) and len(v) > 0,
                "a non-empty dataset-name string"),
    "min_version": (lambda v: _is_int(v) and v >= 0,
                    "a non-negative integer graph version"),
}

_SERVICE_OP_FIELDS = {
    "hello": {},
    "ping": {},
    "stats": {},
    "metrics": {},
    "budget": {"user": (lambda v: isinstance(v, str), "a tenant-name string")},
    "query": {
        **{k: v for k, v in _QUERY_ITEM_FIELDS.items() if k != "seed"},
        "seed": (_is_wire_seed, "an integer or {entropy, spawn_key} object"),
        "at_version": (
            lambda v: _is_int(v) and v >= 0, "a non-negative integer graph version"
        ),
    },
    "audit": {
        "replay": (lambda v: isinstance(v, bool), "a boolean"),
        "user": (lambda v: isinstance(v, str), "a tenant-name string"),
    },
    "update": {
        "actions": (
            lambda v: isinstance(v, list) and len(v) > 0,
            "a non-empty array of update actions",
        ),
        "token": (lambda v: isinstance(v, str), "the admin token string"),
        "label": (lambda v: isinstance(v, str), "a string"),
    },
    "snapshot": {},
    "log": {
        "since": (
            lambda v: _is_int(v) and v >= 0, "a non-negative integer graph version"
        ),
    },
}


def validate_service_request(request: Any) -> Dict:
    """Validate one decoded wire-protocol request frame.

    Returns the frame unchanged when valid; raises :class:`ValueError`
    naming every offending field.  Version *negotiation* (rejecting a
    ``v`` outside ``SUPPORTED_VERSIONS``) is the service's job — this
    only checks shape.
    """
    if not isinstance(request, dict):
        raise ValueError(f"request must be a JSON object, got {type(request).__name__}")
    errors: List[str] = []
    if "op" not in request:
        errors.append(f"op: required (one of {', '.join(SERVICE_OPS)})")
    _check_fields(
        request,
        "",
        {**_SERVICE_COMMON_FIELDS, **_SERVICE_OP_FIELDS.get(request.get("op"), {})},
        errors,
    )
    if request.get("op") == "query" and not errors:
        if "query" not in request:
            errors.append("query: required")
        if "epsilon" not in request:
            errors.append("epsilon: required")
    if request.get("op") == "update" and not errors:
        if "actions" not in request:
            errors.append("actions: required")
        else:
            _check_update_actions(request["actions"], "actions", errors)
    if errors:
        raise ValueError("invalid request: " + "; ".join(errors))
    return request
