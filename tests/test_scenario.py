import copy
import hashlib
import json
import random
from pathlib import Path

import pytest

from equigon.geom import Point, Tolerance
from equigon.sampling import random_scenario
from equigon.scenario import (
    BottemaConfig,
    IdentityCheckConfig,
    Scenario,
    ScenarioError,
    ScenarioKind,
    ScenarioParseError,
    ScenarioValidationError,
    SharedVertexConfig,
    parse_scenario,
    serialize_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL_SHARED = """
{
  "kind": "shared_vertex",
  "n": 4,
  "shared_vertex": {
    "vertex": [0, 0],
    "centroid1": [1, 1],
    "centroid2": [-2, 2],
    "orient1": -1,
    "orient2": 1
  }
}
"""


def test_parse_minimal_shared_vertex():
    scenario = parse_scenario(MINIMAL_SHARED)
    assert scenario.kind is ScenarioKind.SHARED_VERTEX
    assert scenario.n == 4
    assert scenario.seed == 0
    assert scenario.tolerance == Tolerance()
    config = scenario.config
    assert isinstance(config, SharedVertexConfig)
    assert config.vertex == Point(0.0, 0.0)
    assert config.centroid1 == Point(1.0, 1.0)
    assert config.orient2 == 1


def test_small_n_rejected_with_field_name():
    bad = MINIMAL_SHARED.replace('"n": 4', '"n": 2')
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_scenario(bad)
    assert excinfo.value.field == "n"


def test_truncated_document_is_a_parse_error():
    with pytest.raises(ScenarioParseError) as excinfo:
        parse_scenario(MINIMAL_SHARED[: len(MINIMAL_SHARED) // 2])
    assert "line" in str(excinfo.value)


def test_unknown_fields_rejected():
    extra_top = MINIMAL_SHARED.replace('"n": 4', '"n": 4, "comment": "hi"')
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_scenario(extra_top)
    assert excinfo.value.field == "comment"
    extra_block = MINIMAL_SHARED.replace('"orient2": 1', '"orient2": 1, "colour": "red"')
    with pytest.raises(ScenarioValidationError):
        parse_scenario(extra_block)


def test_missing_required_field():
    doc = json.loads(MINIMAL_SHARED)
    del doc["shared_vertex"]["centroid2"]
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_scenario(json.dumps(doc))
    assert excinfo.value.field == "shared_vertex.centroid2"


def test_wrong_kind_and_mismatched_block():
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_scenario('{"kind": "hexagram", "n": 4}')
    assert excinfo.value.field == "kind"
    # a block that does not match the declared kind is an unknown field
    mismatched = MINIMAL_SHARED.replace('"kind": "shared_vertex"', '"kind": "pair"')
    with pytest.raises(ScenarioValidationError):
        parse_scenario(mismatched)


def test_orientation_and_number_validation():
    doc = json.loads(MINIMAL_SHARED)
    doc["shared_vertex"]["orient1"] = 0
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(doc))
    doc = json.loads(MINIMAL_SHARED)
    doc["shared_vertex"]["vertex"] = [True, 0]
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(doc))
    # json.loads accepts bare Infinity; the validator must not
    inf_doc = MINIMAL_SHARED.replace("[1, 1]", "[1, Infinity]")
    with pytest.raises(ScenarioValidationError):
        parse_scenario(inf_doc)


def test_tolerance_block():
    doc = json.loads(MINIMAL_SHARED)
    doc["tolerance"] = {"rel": 1e-7, "abs": 1e-10}
    scenario = parse_scenario(json.dumps(doc))
    assert scenario.tolerance == Tolerance(rel=1e-7, abs=1e-10)
    doc["tolerance"] = {"rel": 1e-7, "extra": 1}
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(doc))
    doc["tolerance"] = {"rel": -1e-7}
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(doc))


def test_bottema_block_validation():
    base = {
        "kind": "bottema",
        "n": 4,
        "bottema": {"an": [0, 0], "a1": [1, 1], "bn": [2, 0]},
    }
    scenario = parse_scenario(json.dumps(base))
    config = scenario.config
    assert isinstance(config, BottemaConfig)
    assert config.side1 is None and config.side2 is None
    assert config.sweep_samples == 0
    base["bottema"]["sweep_samples"] = 1
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_scenario(json.dumps(base))
    assert excinfo.value.field == "bottema.sweep_samples"
    base["bottema"]["sweep_samples"] = 10
    base["bottema"]["side1"] = 0
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(base))


def test_identity_check_block_validation():
    base = {
        "kind": "identity_check",
        "n": 5,
        "identity_check": {"centroid": [0, 0], "r": 2.0, "probes": [[1, 2]]},
    }
    scenario = parse_scenario(json.dumps(base))
    config = scenario.config
    assert isinstance(config, IdentityCheckConfig)
    assert config.phase == 0.0 and config.orient == 1 and config.max_m is None
    base["identity_check"]["probes"] = []
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(base))
    base["identity_check"]["probes"] = [[1, 2]]
    base["identity_check"]["max_m"] = 5
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_scenario(json.dumps(base))
    assert excinfo.value.field == "identity_check.max_m"


def test_sample_files_roundtrip_exactly():
    files = sorted(SCENARIO_DIR.glob("*.json"))
    assert files, "sample scenario files missing"
    for path in files:
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
        again = parse_scenario(serialize_scenario(scenario))
        assert again == scenario, path.name
        # canonical form is a fixed point
        assert serialize_scenario(again) == serialize_scenario(scenario)


def test_random_scenarios_roundtrip_exactly():
    rng = random.Random(99)
    for kind in ScenarioKind:
        for _ in range(25):
            scenario = random_scenario(kind, rng.randint(3, 12), rng)
            assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_serialize_is_deterministic():
    scenario = parse_scenario(MINIMAL_SHARED)
    assert serialize_scenario(scenario) == serialize_scenario(scenario)
    assert serialize_scenario(scenario).endswith("\n")


def test_top_level_must_be_object():
    with pytest.raises(ScenarioValidationError):
        parse_scenario("[1, 2, 3]")


# The parse contract, recorded before the schema moved into the config
# dataclasses: for every field of every kind, a missing value, a wrong type and
# an out-of-range value where one applies, plus the top-level fields.  Each
# case pins the exception type, its ``field`` and the exact message.
MISSING = object()
INF = float("inf")
HUGE = 10 ** 400  # an integer literal of 401 digits
CONTRACT_BLOCKS = {
    "pair": {"centroid1": [0, 0], "r1": 1.0, "phase1": 0.0, "orient1": 1,
             "centroid2": [3, 0], "r2": 2.0, "phase2": 0.5, "orient2": -1},
    "shared_vertex": {"vertex": [0, 0], "centroid1": [1, 1], "centroid2": [-2, 2],
                      "orient1": -1, "orient2": 1},
    "bottema": {"an": [0, 0], "a1": [1, 1], "bn": [2, 0], "side1": 1, "side2": -1,
                "sweep_samples": 10},
    "identity_check": {"centroid": [0, 0], "r": 2.0, "phase": 0.1, "orient": -1,
                       "probes": [[1, 2]], "max_m": 3},
}

# (top-level key, value, error field, message); applied to a valid pair document.
TOP_LEVEL_CASES = [
    ("kind", MISSING, "kind", "missing required field 'kind'"),
    ("kind", "hexagram", "kind",
     "unknown kind 'hexagram' (expected one of ['pair', 'shared_vertex', 'bottema', 'identity_check'])"),
    ("n", MISSING, "n", "missing required field 'n'"),
    ("n", 4.0, "n", "field 'n' must be an integer, got 4.0"),
    ("n", 2, "n", "field 'n' must be at least 3, got 2"),
    ("n", 2049, "n", "field 'n' must be at most 2048, got 2049"),
    ("n", HUGE, "n", "field 'n' must be at most 2048, got 100000000000000000...0000000000000000000"),
    ("seed", "x", "seed", "field 'seed' must be an integer, got 'x'"),
    ("tolerance", "x", "tolerance", "field 'tolerance' must be an object"),
    ("tolerance", {"rel": 0}, "tolerance.rel", "field 'tolerance.rel' must be positive, got 0"),
    ("tolerance", {"abs": -1}, "tolerance.abs", "field 'tolerance.abs' must be positive, got -1"),
    ("tolerance", {"extra": 1}, "tolerance.extra",
     "unknown field tolerance.'extra' (allowed: ['abs', 'rel'])"),
    ("pair", MISSING, "pair", "missing required field 'pair'"),
    ("pair", [1], "pair", "field 'pair' must be an object"),
    ("comment", "hi", "comment",
     "unknown field 'comment' (allowed: ['kind', 'n', 'pair', 'seed', 'tolerance'])"),
]

# (kind, block key, value, error field, message)
BLOCK_CASES = [
    ("pair", "centroid1", MISSING, "pair.centroid1", "missing required field pair.'centroid1'"),
    ("pair", "centroid1", "x", "pair.centroid1",
     "field 'pair.centroid1' must be a pair [x, y], got 'x'"),
    ("pair", "centroid1", [0, INF], "pair.centroid1[1]",
     "field 'pair.centroid1[1]' must be finite, got inf"),
    ("pair", "r1", MISSING, "pair.r1", "missing required field pair.'r1'"),
    ("pair", "r1", "x", "pair.r1", "field 'pair.r1' must be a number, got 'x'"),
    ("pair", "r1", 0, "pair.r1", "field 'pair.r1' must be positive, got 0"),
    ("pair", "phase1", MISSING, "pair.phase1", "missing required field pair.'phase1'"),
    ("pair", "phase1", "x", "pair.phase1", "field 'pair.phase1' must be a number, got 'x'"),
    ("pair", "phase1", INF, "pair.phase1", "field 'pair.phase1' must be finite, got inf"),
    ("pair", "orient1", MISSING, "pair.orient1", "missing required field pair.'orient1'"),
    ("pair", "orient1", 1.0, "pair.orient1", "field 'pair.orient1' must be an integer, got 1.0"),
    ("pair", "orient1", 0, "pair.orient1", "field 'pair.orient1' must be +1 or -1, got 0"),
    ("pair", "centroid2", MISSING, "pair.centroid2", "missing required field pair.'centroid2'"),
    ("pair", "centroid2", "x", "pair.centroid2",
     "field 'pair.centroid2' must be a pair [x, y], got 'x'"),
    ("pair", "centroid2", [0, INF], "pair.centroid2[1]",
     "field 'pair.centroid2[1]' must be finite, got inf"),
    ("pair", "r2", MISSING, "pair.r2", "missing required field pair.'r2'"),
    ("pair", "r2", "x", "pair.r2", "field 'pair.r2' must be a number, got 'x'"),
    ("pair", "r2", 0, "pair.r2", "field 'pair.r2' must be positive, got 0"),
    ("pair", "phase2", MISSING, "pair.phase2", "missing required field pair.'phase2'"),
    ("pair", "phase2", "x", "pair.phase2", "field 'pair.phase2' must be a number, got 'x'"),
    ("pair", "phase2", INF, "pair.phase2", "field 'pair.phase2' must be finite, got inf"),
    ("pair", "orient2", MISSING, "pair.orient2", "missing required field pair.'orient2'"),
    ("pair", "orient2", 1.0, "pair.orient2", "field 'pair.orient2' must be an integer, got 1.0"),
    ("pair", "orient2", 0, "pair.orient2", "field 'pair.orient2' must be +1 or -1, got 0"),
    ("pair", "colour", "red", "pair.colour",
     "unknown field pair.'colour' (allowed: ['centroid1', 'centroid2', 'orient1', 'orient2', 'phase1', 'phase2', 'r1', 'r2'])"),
    ("shared_vertex", "vertex", MISSING, "shared_vertex.vertex", "missing required field shared_vertex.'vertex'"),
    ("shared_vertex", "vertex", "x", "shared_vertex.vertex",
     "field 'shared_vertex.vertex' must be a pair [x, y], got 'x'"),
    ("shared_vertex", "vertex", [0, INF], "shared_vertex.vertex[1]",
     "field 'shared_vertex.vertex[1]' must be finite, got inf"),
    ("shared_vertex", "vertex", [1], "shared_vertex.vertex",
     "field 'shared_vertex.vertex' must be a pair [x, y], got [1]"),
    ("shared_vertex", "vertex", [True, 0], "shared_vertex.vertex[0]",
     "field 'shared_vertex.vertex[0]' must be a number, got True"),
    ("shared_vertex", "centroid1", MISSING, "shared_vertex.centroid1",
     "missing required field shared_vertex.'centroid1'"),
    ("shared_vertex", "centroid1", "x", "shared_vertex.centroid1",
     "field 'shared_vertex.centroid1' must be a pair [x, y], got 'x'"),
    ("shared_vertex", "centroid1", [0, INF], "shared_vertex.centroid1[1]",
     "field 'shared_vertex.centroid1[1]' must be finite, got inf"),
    ("shared_vertex", "centroid2", MISSING, "shared_vertex.centroid2",
     "missing required field shared_vertex.'centroid2'"),
    ("shared_vertex", "centroid2", "x", "shared_vertex.centroid2",
     "field 'shared_vertex.centroid2' must be a pair [x, y], got 'x'"),
    ("shared_vertex", "centroid2", [0, INF], "shared_vertex.centroid2[1]",
     "field 'shared_vertex.centroid2[1]' must be finite, got inf"),
    ("shared_vertex", "orient1", MISSING, "shared_vertex.orient1",
     "missing required field shared_vertex.'orient1'"),
    ("shared_vertex", "orient1", 1.0, "shared_vertex.orient1",
     "field 'shared_vertex.orient1' must be an integer, got 1.0"),
    ("shared_vertex", "orient1", 0, "shared_vertex.orient1",
     "field 'shared_vertex.orient1' must be +1 or -1, got 0"),
    ("shared_vertex", "orient2", MISSING, "shared_vertex.orient2",
     "missing required field shared_vertex.'orient2'"),
    ("shared_vertex", "orient2", 1.0, "shared_vertex.orient2",
     "field 'shared_vertex.orient2' must be an integer, got 1.0"),
    ("shared_vertex", "orient2", 0, "shared_vertex.orient2",
     "field 'shared_vertex.orient2' must be +1 or -1, got 0"),
    ("shared_vertex", "colour", "red", "shared_vertex.colour",
     "unknown field shared_vertex.'colour' (allowed: ['centroid1', 'centroid2', 'orient1', 'orient2', 'vertex'])"),
    ("bottema", "an", MISSING, "bottema.an", "missing required field bottema.'an'"),
    ("bottema", "an", "x", "bottema.an", "field 'bottema.an' must be a pair [x, y], got 'x'"),
    ("bottema", "an", [0, INF], "bottema.an[1]", "field 'bottema.an[1]' must be finite, got inf"),
    ("bottema", "a1", MISSING, "bottema.a1", "missing required field bottema.'a1'"),
    ("bottema", "a1", "x", "bottema.a1", "field 'bottema.a1' must be a pair [x, y], got 'x'"),
    ("bottema", "a1", [0, INF], "bottema.a1[1]", "field 'bottema.a1[1]' must be finite, got inf"),
    ("bottema", "bn", MISSING, "bottema.bn", "missing required field bottema.'bn'"),
    ("bottema", "bn", "x", "bottema.bn", "field 'bottema.bn' must be a pair [x, y], got 'x'"),
    ("bottema", "bn", [0, INF], "bottema.bn[1]", "field 'bottema.bn[1]' must be finite, got inf"),
    ("bottema", "side1", "x", "bottema.side1", "field 'bottema.side1' must be an integer, got 'x'"),
    ("bottema", "side1", 2, "bottema.side1", "field 'bottema.side1' must be +1 or -1, got 2"),
    ("bottema", "side2", "x", "bottema.side2", "field 'bottema.side2' must be an integer, got 'x'"),
    ("bottema", "side2", 2, "bottema.side2", "field 'bottema.side2' must be +1 or -1, got 2"),
    ("bottema", "sweep_samples", None, "bottema.sweep_samples",
     "field 'bottema.sweep_samples' must be an integer, got None"),
    ("bottema", "sweep_samples", 1.5, "bottema.sweep_samples",
     "field 'bottema.sweep_samples' must be an integer, got 1.5"),
    ("bottema", "sweep_samples", True, "bottema.sweep_samples",
     "field 'bottema.sweep_samples' must be an integer, got True"),
    ("bottema", "sweep_samples", -1, "bottema.sweep_samples",
     "field 'bottema.sweep_samples' must be 0 or >= 2, got -1"),
    ("bottema", "sweep_samples", 1, "bottema.sweep_samples",
     "field 'bottema.sweep_samples' must be 0 or >= 2, got 1"),
    ("bottema", "sweep_samples", 10_001, "bottema.sweep_samples",
     "field 'bottema.sweep_samples' must be at most 10000, got 10001"),
    ("bottema", "sweep_samples", HUGE, "bottema.sweep_samples",
     "field 'bottema.sweep_samples' must be at most 10000, got 100000000000000000...0000000000000000000"),
    ("bottema", "colour", "red", "bottema.colour",
     "unknown field bottema.'colour' (allowed: ['a1', 'an', 'bn', 'side1', 'side2', 'sweep_samples'])"),
    ("identity_check", "centroid", MISSING, "identity_check.centroid",
     "missing required field identity_check.'centroid'"),
    ("identity_check", "centroid", "x", "identity_check.centroid",
     "field 'identity_check.centroid' must be a pair [x, y], got 'x'"),
    ("identity_check", "centroid", [0, INF], "identity_check.centroid[1]",
     "field 'identity_check.centroid[1]' must be finite, got inf"),
    ("identity_check", "r", MISSING, "identity_check.r", "missing required field identity_check.'r'"),
    ("identity_check", "r", "x", "identity_check.r",
     "field 'identity_check.r' must be a number, got 'x'"),
    ("identity_check", "r", 0, "identity_check.r",
     "field 'identity_check.r' must be positive, got 0"),
    ("identity_check", "r", -1.5, "identity_check.r",
     "field 'identity_check.r' must be positive, got -1.5"),
    ("identity_check", "phase", None, "identity_check.phase",
     "field 'identity_check.phase' must be a number, got None"),
    ("identity_check", "phase", "x", "identity_check.phase",
     "field 'identity_check.phase' must be a number, got 'x'"),
    ("identity_check", "phase", INF, "identity_check.phase",
     "field 'identity_check.phase' must be finite, got inf"),
    ("identity_check", "orient", None, "identity_check.orient",
     "field 'identity_check.orient' must be an integer, got None"),
    ("identity_check", "orient", 1.0, "identity_check.orient",
     "field 'identity_check.orient' must be an integer, got 1.0"),
    ("identity_check", "orient", 0, "identity_check.orient",
     "field 'identity_check.orient' must be +1 or -1, got 0"),
    ("identity_check", "probes", MISSING, "identity_check.probes",
     "missing required field identity_check.'probes'"),
    ("identity_check", "probes", "x", "identity_check.probes",
     "field 'identity_check.probes' must be a non-empty list of points"),
    ("identity_check", "probes", [], "identity_check.probes",
     "field 'identity_check.probes' must be a non-empty list of points"),
    ("identity_check", "probes", [[1]], "identity_check.probes[0]",
     "field 'identity_check.probes[0]' must be a pair [x, y], got [1]"),
    ("identity_check", "probes", [[1, "y"]], "identity_check.probes[0][1]",
     "field 'identity_check.probes[0][1]' must be a number, got 'y'"),
    ("identity_check", "max_m", "x", "identity_check.max_m",
     "field 'identity_check.max_m' must be an integer, got 'x'"),
    ("identity_check", "max_m", 0, "identity_check.max_m", "field 'identity_check.max_m' must lie in 1..4, got 0"),
    ("identity_check", "max_m", 5, "identity_check.max_m", "field 'identity_check.max_m' must lie in 1..4, got 5"),
    ("identity_check", "colour", "red", "identity_check.colour",
     "unknown field identity_check.'colour' (allowed: ['centroid', 'max_m', 'orient', 'phase', 'probes', 'r'])"),
]


def _contract_doc(kind, target, key, value):
    doc = {"kind": kind, "n": 5, "seed": 3, kind: copy.deepcopy(CONTRACT_BLOCKS[kind])}
    where = doc if target is None else doc[target]
    if value is MISSING:
        del where[key]
    else:
        where[key] = value
    return json.dumps(doc)


def _case_id(prefix, value):
    if value is MISSING:
        return f"{prefix}-missing"
    return f"{prefix}-{'10**400' if value is HUGE else repr(value)}"


def test_caps_are_inclusive():
    scenario = parse_scenario(_contract_doc("bottema", "bottema", "sweep_samples", 10_000))
    assert scenario.config.sweep_samples == 10_000
    assert parse_scenario(_contract_doc("pair", None, "n", 2048)).n == 2048


CONTRACT_DOCS = [
    pytest.param(_contract_doc("pair", None, key, value), ScenarioValidationError, field, message,
                 id=_case_id(key, value))
    for key, value, field, message in TOP_LEVEL_CASES
] + [
    pytest.param(_contract_doc(kind, kind, key, value), ScenarioValidationError, field, message,
                 id=_case_id(f"{kind}.{key}", value))
    for kind, key, value, field, message in BLOCK_CASES
] + [
    pytest.param("[1, 2, 3]", ScenarioValidationError, "document",
                 "top level must be a JSON object", id="document-list"),
    pytest.param('{"kind": "pair", "n": ', ScenarioParseError, None,
                 "invalid JSON at line 1 column 23: Expecting value", id="document-truncated"),
]


@pytest.mark.parametrize("text, error, field, message", CONTRACT_DOCS)
def test_parse_contract(text, error, field, message):
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(text)
    assert type(excinfo.value) is error
    assert getattr(excinfo.value, "field", None) == field
    assert str(excinfo.value) == message


def test_serialized_form_is_pinned():
    """serialize_scenario bytes over the sample files and a seeded random set."""
    digest = hashlib.sha256()
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
        digest.update(serialize_scenario(scenario).encode())
    rng = random.Random(2024)
    for kind in ScenarioKind:
        for n in range(3, 13):
            digest.update(serialize_scenario(random_scenario(kind, n, rng)).encode())
    assert digest.hexdigest() == "79e4577a0cb8f2c7422d62c00a9ab37aa63527310348445ca23d1376ff65d2b1"
