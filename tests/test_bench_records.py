"""README's benchmark table, one row per committed ``BENCH_*.json`` record.

The records are the one source of the benchmark history.  ``table(root)``
renders them, sorted by file name, and a test fails when README's block
between the markers differs from it.  After adding a record, rewrite the
block with:

    PYTHONPATH=src python tests/test_bench_records.py
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify_docs", "large_n", "apex_sweep")
BEGIN, END = "<!-- benchmark records: begin -->\n", "\n<!-- benchmark records: end -->"
REWRITE = "PYTHONPATH=src python tests/test_bench_records.py"


def field(record, name, *path):
    """The value at ``path`` in the record, or a ``ValueError`` naming the file and the field."""
    value = record
    for key in path:
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"{name}: no field {'.'.join(path)}")
        value = value[key]
    return value


def claim(record):
    """The record's claim up to its first ``:`` or ``. ``: ``none`` when it is
    null, ``—`` when the record predates the field."""
    if "claim" not in record:
        return "—"
    text = record["claim"]
    if text is None:
        return "none"
    cuts = [at for at in (text.find(":"), text.find(". ")) if at >= 0]
    return text[:min(cuts, default=len(text))].strip().replace("|", "\\|")


def row(path):
    record, name = json.loads(path.read_text(encoding="utf-8")), path.name
    seeds = len(field(record, name, "pairs", "seeds"))
    cells = [field(record, name, "label"), field(record, name, "parent_commit")[:7]]
    for workload in WORKLOADS:
        def median(key):
            return field(record, name, "summary", workload, "ref_scenarios_per_s", key)
        cells.append(f"{median('parent_median'):.1f} → {median('change_median'):.1f}"
                     f" ({median('change_wins')}/{seeds})")
    return "| " + " | ".join([*cells, claim(record)]) + " |"


def table(root):
    """README's benchmark table: one row per ``BENCH_*.json`` in ``root``, by file name."""
    lines = ["| Record | Parent | " + " | ".join(WORKLOADS) + " | Claim |", "|---" * (len(WORKLOADS) + 3) + "|"]
    return "\n".join(lines + [row(path) for path in sorted(root.glob("BENCH_*.json"))])


def readme_block(root):
    """The text between README's benchmark markers."""
    return (root / "README.md").read_text(encoding="utf-8").split(BEGIN, 1)[1].split(END, 1)[0]


def stale(root):
    """``None`` when README's block is ``table(root)``, else a message that names the rewrite command."""
    if readme_block(root) == table(root):
        return None
    return f"README's benchmark table differs from the BENCH_*.json records; rewrite it with: {REWRITE}"


def test_readme_benchmark_table_is_the_records():
    assert stale(ROOT) is None, stale(ROOT)


@pytest.fixture
def copy(tmp_path):
    """README and every record, copied where a test may change them."""
    for path in [ROOT / "README.md", *ROOT.glob("BENCH_*.json")]:
        shutil.copy(path, tmp_path)
    return tmp_path


def test_a_new_record_makes_the_table_stale(copy):
    shutil.copy(copy / "BENCH_error_types.json", copy / "BENCH_zz_new.json")
    assert REWRITE in stale(copy)


def test_a_hand_edited_cell_makes_the_table_stale(copy):
    readme = (copy / "README.md").read_text(encoding="utf-8")
    (copy / "README.md").write_text(readme.replace("| error_types | 76d1c5f |", "| error_types | 76d1c5e |"),
                                    encoding="utf-8")
    assert REWRITE in stale(copy)


@pytest.mark.parametrize("path", [("label",), ("pairs", "seeds"), ("summary", "large_n", "ref_scenarios_per_s")])
def test_a_record_without_a_field_names_the_file_and_the_field(copy, path):
    record = json.loads((copy / "BENCH_error_types.json").read_text(encoding="utf-8"))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    (copy / "BENCH_error_types.json").write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(ValueError, match=f"BENCH_error_types.json: no field {'.'.join(path)}"):
        table(copy)


@pytest.mark.parametrize("text, cut", [
    (None, "none"),
    ("none: no speed claim. Every metric is within its bound", "none"),
    ("No gain is claimed. No end-to-end metric: worse", "No gain is claimed"),
    ("large_n ref_scenarios_per_s: 80.23 -> 178.25 (2.22x)", "large_n ref_scenarios_per_s"),
])
def test_the_claim_is_cut_at_its_first_colon_or_full_stop(text, cut):
    assert claim({"claim": text}) == cut


if __name__ == "__main__":
    readme = ROOT / "README.md"
    text = readme.read_text(encoding="utf-8")
    readme.write_text(text.replace(BEGIN + readme_block(ROOT) + END, BEGIN + table(ROOT) + END), encoding="utf-8")
    print(f"wrote {len(list(ROOT.glob('BENCH_*.json')))} record rows to {readme}", file=sys.stderr)
