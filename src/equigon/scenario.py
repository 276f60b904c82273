"""Scenario documents: one JSON file describing one configuration to verify.

A scenario carries the vertex count, a comparison tolerance, a seed for any
randomized sub-checks, and exactly one kind-specific block:

    pair            two fully specified polygons
    shared_vertex   two polygons pinned to a common first vertex
    bottema         a triangle with polygons erected on its apex sides
    identity_check  one polygon plus probe points for the closed-form sums

The config dataclasses (PairConfig, SharedVertexConfig, BottemaConfig,
IdentityCheckConfig) are the schema of those blocks.  Each field declares its
type, its reader (the validator that converts the document's value) and, when
the document may leave it out, its default, once; parsing, serializing and the
report's scenario block all walk a table read from ``dataclasses.fields`` of
each config at import.

Parsing is strict: unknown fields are rejected, every number must be finite,
``n``, ``bottema.sweep_samples`` and the number of ``identity_check.probes``
may not exceed MAX_N, MAX_SWEEP_SAMPLES and MAX_PROBES, and parse ->
serialize -> parse is exact (floats survive the JSON round trip).
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import Any, Callable, Collection, Mapping

from .geom import DEFAULT_TOLERANCE, Point, Tolerance

# The largest polygon size, apex sweep and probe list a document (or the CLI) may ask for.
MAX_N = 2048
MAX_SWEEP_SAMPLES = 10_000
MAX_PROBES = 64

# An error echoes the offending value cut to about 40 characters, so a
# 400-digit literal still gives a one-line message.
_ECHO = reprlib.Repr()
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 40


class ScenarioError(ValueError):
    pass


class ScenarioValidationError(ScenarioError):
    """A schema violation; ``field`` is the offending field's full path, such as
    ``pair.r1``, ``tolerance.rel`` or ``identity_check.probes[0][1]``."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


class ScenarioKind(Enum):
    PAIR = "pair"
    SHARED_VERTEX = "shared_vertex"
    BOTTEMA = "bottema"
    IDENTITY_CHECK = "identity_check"


def _reject_unknown(block: Mapping[str, Any], allowed: Collection[str], context: str) -> None:
    for key in block:
        if key not in allowed:
            raise ScenarioValidationError(
                context + key,
                f"unknown field {context}{_ECHO.repr(key)} (allowed: {sorted(allowed)})",
            )


def _require(block: Mapping[str, Any], field: str, context: str) -> Any:
    if field not in block:
        raise ScenarioValidationError(context + field, f"missing required field {context}{field!r}")
    return block[field]


def _invalid(field: str, rule: str, value: Any) -> ScenarioValidationError:
    return ScenarioValidationError(field, f"field {field!r} must {rule}, got {_ECHO.repr(value)}")


def _number(value: Any, field: str) -> float:
    # bool is an int subclass; it is never a legitimate coordinate
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _invalid(field, "be a number", value)
    try:
        out = float(value)
    except OverflowError:  # an integer literal beyond float range
        out = math.inf
    if not math.isfinite(out):
        raise _invalid(field, "be finite", value)
    return out


def _integer(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _invalid(field, "be an integer", value)
    return value


def _orientation(value: Any, field: str) -> int:
    out = _integer(value, field)
    if out not in (1, -1):
        raise _invalid(field, "be +1 or -1", value)
    return out


def _point(value: Any, field: str) -> Point:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise _invalid(field, "be a pair [x, y]", value)
    return Point(_number(value[0], f"{field}[0]"), _number(value[1], f"{field}[1]"))


def _positive(value: Any, field: str) -> float:
    out = _number(value, field)
    if out <= 0.0:
        raise _invalid(field, "be positive", value)
    return out


def _optional(read: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    """A reader that lets an explicit null through as None."""
    return lambda value, field: None if value is None else read(value, field)


def _sweep_samples(value: Any, field: str) -> int:
    samples = _integer(value, field)
    if samples < 0 or samples == 1:
        raise _invalid(field, "be 0 or >= 2", samples)
    if samples > MAX_SWEEP_SAMPLES:
        raise _invalid(field, f"be at most {MAX_SWEEP_SAMPLES}", samples)
    return samples


def _probes(value: Any, field: str) -> tuple[Point, ...]:
    if not isinstance(value, list) or not value:
        raise ScenarioValidationError(field, f"field {field!r} must be a non-empty list of points")
    if len(value) > MAX_PROBES:
        raise _invalid(field, f"hold at most {MAX_PROBES} points", len(value))
    return tuple(_point(item, f"{field}[{i}]") for i, item in enumerate(value))


def _read(read: Callable[[Any, str], Any], default: Any = MISSING) -> Any:
    """Declare a block field: ``read(value, "kind.name")`` validates and converts
    the document's value; a field with a default may be left out of the document."""
    return field(default=default, metadata={"read": read})


@dataclass(frozen=True, kw_only=True)
class PairConfig:
    centroid1: Point = _read(_point)
    r1: float = _read(_positive)
    phase1: float = _read(_number)
    orient1: int = _read(_orientation)
    centroid2: Point = _read(_point)
    r2: float = _read(_positive)
    phase2: float = _read(_number)
    orient2: int = _read(_orientation)


@dataclass(frozen=True, kw_only=True)
class SharedVertexConfig:
    vertex: Point = _read(_point)
    centroid1: Point = _read(_point)
    centroid2: Point = _read(_point)
    orient1: int = _read(_orientation)
    orient2: int = _read(_orientation)


@dataclass(frozen=True, kw_only=True)
class BottemaConfig:
    an: Point = _read(_point)
    a1: Point = _read(_point)
    bn: Point = _read(_point)
    # None: erect each polygon on the side away from the triangle (exterior)
    side1: int | None = _read(_optional(_orientation), None)
    side2: int | None = _read(_optional(_orientation), None)
    sweep_samples: int = _read(_sweep_samples, 0)


@dataclass(frozen=True, kw_only=True)
class IdentityCheckConfig:
    centroid: Point = _read(_point)
    r: float = _read(_positive)
    phase: float = _read(_number, 0.0)
    orient: int = _read(_orientation, 1)
    probes: tuple[Point, ...] = _read(_probes)
    # None: every order 1..n-1; range-checked against n after the block is read
    max_m: int | None = _read(_optional(_integer), None)


Config = PairConfig | SharedVertexConfig | BottemaConfig | IdentityCheckConfig

_CONFIGS: dict[ScenarioKind, type[Config]] = {
    ScenarioKind.PAIR: PairConfig,
    ScenarioKind.SHARED_VERTEX: SharedVertexConfig,
    ScenarioKind.BOTTEMA: BottemaConfig,
    ScenarioKind.IDENTITY_CHECK: IdentityCheckConfig,
}


# Per config class: each field's reader and whether the document must give it,
# by name in declaration order.
_SCHEMAS = {
    cls: {f.name: (f.metadata["read"], f.default is MISSING) for f in fields(cls)}
    for cls in _CONFIGS.values()
}


@dataclass(frozen=True)
class Scenario:
    kind: ScenarioKind
    n: int
    tolerance: Tolerance
    seed: int
    config: Config


def _parse_tolerance(value: Any) -> Tolerance:
    if value is None:
        return DEFAULT_TOLERANCE
    if not isinstance(value, dict):
        raise ScenarioValidationError("tolerance", "field 'tolerance' must be an object")
    _reject_unknown(value, {"rel", "abs"}, "tolerance.")
    rel = _positive(value["rel"], "tolerance.rel") if "rel" in value else DEFAULT_TOLERANCE.rel
    abs_ = _positive(value["abs"], "tolerance.abs") if "abs" in value else DEFAULT_TOLERANCE.abs
    return Tolerance(rel=rel, abs=abs_)


def _parse_block(kind: ScenarioKind, block: Mapping[str, Any], n: int) -> Config:
    """Read one kind block against its config class, field by field in declaration order."""
    cls = _CONFIGS[kind]
    context = f"{kind.value}."
    schema = _SCHEMAS[cls]
    _reject_unknown(block, schema, context)
    values = {}
    for name, (read, required) in schema.items():
        if required or name in block:
            values[name] = read(_require(block, name, context), context + name)
    config = cls(**values)
    if isinstance(config, IdentityCheckConfig) and config.max_m is not None:
        if not 1 <= config.max_m <= n - 1:
            raise _invalid(context + "max_m", f"lie in 1..{n - 1}", config.max_m)
    return config


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Raises ScenarioError for malformed JSON (with position) and
    ScenarioValidationError (carrying the offending field name) for schema
    violations.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # json.loads raises these, not JSONDecodeError, for an integer literal past
        # the interpreter's digit limit and for arrays or objects nested too deeply.
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioValidationError("document", "top level must be a JSON object")

    kind_raw = _require(data, "kind", "")
    try:
        kind = ScenarioKind(kind_raw)
    except ValueError:
        expected = [k.value for k in ScenarioKind]
        raise ScenarioValidationError(
            "kind", f"unknown kind {_ECHO.repr(kind_raw)} (expected one of {expected})"
        ) from None

    _reject_unknown(data, {"kind", "n", "tolerance", "seed", kind.value}, "")
    n = _integer(_require(data, "n", ""), "n")
    if n < 3:
        raise _invalid("n", "be at least 3", n)
    if n > MAX_N:
        raise _invalid("n", f"be at most {MAX_N}", n)
    tolerance = _parse_tolerance(data.get("tolerance"))
    seed = _integer(data.get("seed", 0), "seed")

    block = _require(data, kind.value, "")
    if not isinstance(block, dict):
        raise ScenarioValidationError(kind.value, f"field {kind.value!r} must be an object")
    config = _parse_block(kind, block, n)
    return Scenario(kind=kind, n=n, tolerance=tolerance, seed=seed, config=config)


def _value_out(value: Any) -> Any:
    if isinstance(value, Point):
        return [value.x, value.y]
    if isinstance(value, tuple):
        return [_value_out(item) for item in value]
    return value


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """The scenario as JSON-ready data, as ``serialize_scenario`` writes it."""
    config = scenario.config
    return {
        "kind": scenario.kind.value,
        "n": scenario.n,
        "seed": scenario.seed,
        "tolerance": {"rel": scenario.tolerance.rel, "abs": scenario.tolerance.abs},
        scenario.kind.value: {name: _value_out(getattr(config, name)) for name in _SCHEMAS[type(config)]},
    }


_ESCAPE = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _canonical_json(value: Any) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for the data equigon writes
    (dicts with str keys, lists, tuples, str, float, int, bool, None), in one
    recursive pass: any ``indent`` sends ``json`` to its pure-Python encoder."""

    def write(value: Any, newline: str) -> str:
        cls = type(value)
        if cls is str:
            return _ESCAPE(value)
        if cls is float:
            text = float.__repr__(value)
            return _NON_FINITE.get(text, text)
        if cls is dict:
            if not value:
                return "{}"
            inner, parts = newline + "  ", []
            for key in sorted(value):
                parts.append(f"{_ESCAPE(key)}: {write(value[key], inner)}")
            return "{" + inner + ("," + inner).join(parts) + newline + "}"
        if cls is list or cls is tuple:
            if not value:
                return "[]"
            inner, parts = newline + "  ", []
            for item in value:
                parts.append(write(item, inner))
            return "[" + inner + ("," + inner).join(parts) + newline + "]"
        if value is None:
            return "null"
        if cls is bool:
            return "true" if value else "false"
        if cls is int:
            return int.__repr__(value)
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")

    return write(value, "\n")


def serialize_scenario(scenario: Scenario) -> str:
    """Emit the canonical JSON form: sorted keys, two-space indent, newline end."""
    return _canonical_json(scenario_to_dict(scenario)) + "\n"
