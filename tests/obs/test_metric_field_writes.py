"""Only ``repro/obs/metrics.py`` writes a metric's fields.

Instrumented code records through the public API (``Counter.inc``,
``Histogram.observe`` and ``observe_counts``, a registry ``Tally``), so
the metric format lives in one module and a ``NULL_REGISTRY`` object
counts nothing.  This test parses every module under ``src/repro`` and
fails on any assignment, augmented assignment or ``setattr`` that
writes one of the metric classes' private fields on an object other
than ``self``, including item writes into them
(``histogram._bucket_counts[i] += 1``).
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

#: The private fields of Counter, Gauge, Histogram and Info.
METRIC_FIELDS = frozenset(
    {"_value", "_bucket_counts", "_count", "_sum", "_min", "_max"}
)

SOURCE_ROOT = Path(repro.__file__).resolve().parent
METRICS_MODULE = SOURCE_ROOT / "obs" / "metrics.py"


def _written_field(target: ast.expr) -> ast.Attribute | None:
    """The metric-field attribute *target* writes, if any: the field
    itself, or an item of it, on an object other than ``self``."""
    while isinstance(target, ast.Subscript):
        target = target.value
    if (
        isinstance(target, ast.Attribute)
        and target.attr in METRIC_FIELDS
        and not (isinstance(target.value, ast.Name) and target.value.id == "self")
    ):
        return target
    return None


def _targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    else:
        return []
    flat = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        else:
            flat.append(target)
    return flat


def metric_field_writes(source: str) -> list[tuple[int, str]]:
    """``(line, field)`` of every metric-field write in *source*."""
    writes = []
    for node in ast.walk(ast.parse(source)):
        for target in _targets(node):
            field = _written_field(target)
            if field is not None:
                writes.append((node.lineno, field.attr))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
            and (
                node.func.id if isinstance(node.func, ast.Name)
                else node.func.attr
            ) in ("setattr", "__setattr__")
        ):
            for argument in node.args:
                if (
                    isinstance(argument, ast.Constant)
                    and argument.value in METRIC_FIELDS
                ):
                    writes.append((node.lineno, argument.value))
    return sorted(writes)


def test_no_module_but_metrics_writes_metric_fields():
    offenders = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        if path == METRICS_MODULE:
            continue
        for line, field in metric_field_writes(path.read_text()):
            offenders.append(f"{path.relative_to(SOURCE_ROOT)}:{line} {field}")
    assert not offenders, "metric fields written outside metrics.py:\n" + (
        "\n".join(offenders)
    )


def test_finder_sees_each_kind_of_write():
    source = """
counter._value += 1
self._m_xor._value += tied + 1
histogram._bucket_counts[index] += 1
histogram._count, histogram._sum = 1, 2.0
histogram._min: float = value
del histogram._max
setattr(counter, "_value", 3)
object.__setattr__(counter, "_value", 3)
"""
    assert metric_field_writes(source) == [
        (2, "_value"),
        (3, "_value"),
        (4, "_bucket_counts"),
        (5, "_count"),
        (5, "_sum"),
        (6, "_min"),
        (7, "_max"),
        (8, "_value"),
        (9, "_value"),
    ]


def test_finder_allows_reads_and_own_fields():
    source = """
self._value = 0
self._bucket_counts[index] += 1
total = counter._value + histogram._count
other._values = {}
"""
    assert metric_field_writes(source) == []
