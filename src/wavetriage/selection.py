"""Prune a VCD's hierarchical signal list down to the target-module signals.

A hierarchical signal is kept when its enclosing instance path, walked from
the DUT root scope through the instantiation edges of the module lookup
table, lands on a target module that declares the leaf name. Testbench
layers above the DUT root are skipped; scopes that do not resolve to a known
instance drop their subtree.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Sequence

from . import DataError
from .sysio import json_fields


class SelectionError(DataError):
    pass


class NoSignalsSelected(SelectionError):
    """Nothing survived pruning; downstream feature width would be zero.

    Usually a name mismatch between the testbench hierarchy and the lookup
    table (wrong --dut-root, wrong top module, or renamed signals)."""


_TRAILING_RANGE = re.compile(r"\[[0-9]+(?::[0-9]+)?\]$")


@dataclass
class SelectionReport:
    selected: list[tuple[str, str, int, str]]  # (full_name, id_code, width, owning_target)
    dropped_count: int
    per_target_counts: dict[str, int]

    def id_codes(self) -> frozenset[str]:
        return frozenset(id_code for _, id_code, _, _ in self.selected)

    def full_names(self) -> list[str]:
        return [name for name, _, _, _ in self.selected]

    def to_json(self) -> str:
        counts = dict(sorted(self.per_target_counts.items()))
        return json.dumps({**asdict(self), "per_target_counts": counts}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SelectionReport":
        """The report :meth:`to_json` wrote; a missing key or a value of
        the wrong JSON type raises ValueError naming it."""
        return json_fields(cls, json.loads(text), "selection report")


def _strip_index(scope: str) -> str:
    """Genvar-indexed instance scopes match on their base name."""
    return _TRAILING_RANGE.sub("", scope)


def prune(
    hier_signals: Sequence[tuple[str, str, int]],
    target_signals: Mapping[str, Iterable[str]],
    instance_map: Mapping[str, list[tuple[str, str]]],
    top_module: str,
    dut_root: str | None = None,
) -> SelectionReport:
    """Select the extractable signals from a full hierarchical list.

    ``hier_signals`` comes from ``vcd.list_full_names``; ``target_signals``
    from ``rtl.signals_for_targets``; ``instance_map`` is the lookup table's
    instantiation edges. ``dut_root`` is the dotted scope path of the DUT
    instance (defaults to the first root scope seen); ``top_module`` names
    the module that instance corresponds to.
    """
    if not hier_signals:
        raise SelectionError("empty hierarchical signal list")
    if not target_signals:
        raise SelectionError("empty target signal map")

    target_sets = {module: set(names) for module, names in target_signals.items()}
    by_parent: dict[str, dict[str, str]] = {}
    for module, insts in instance_map.items():
        lookup: dict[str, str] = {}
        for child, inst_name in insts:
            lookup.setdefault(inst_name, child)
        by_parent[module] = lookup

    root_parts = tuple(dut_root.split(".")) if dut_root else (hier_signals[0][0].split(".")[0],)
    depth = len(root_parts)

    module_cache: dict[tuple[str, ...], str | None] = {root_parts: top_module}

    def resolve(scope_parts: tuple[str, ...]) -> str | None:
        if scope_parts in module_cache:
            return module_cache[scope_parts]
        if len(scope_parts) <= depth or scope_parts[:depth] != root_parts:
            module_cache[scope_parts] = None
            return None
        parent = resolve(scope_parts[:-1])
        module = None
        if parent is not None:
            lookup = by_parent.get(parent, {})
            comp = scope_parts[-1]
            module = lookup.get(comp) or lookup.get(_strip_index(comp))
        module_cache[scope_parts] = module
        return module

    selected: list[tuple[str, str, int, str]] = []
    per_target = {target: 0 for target in target_sets}
    for full_name, id_code, width in hier_signals:
        parts = full_name.split(".")
        scope = tuple(parts[:-1])
        leaf = parts[-1]
        if scope[:depth] != root_parts:
            continue
        module = resolve(scope)
        if module is None or module not in target_sets:
            continue
        if leaf not in target_sets[module] and _strip_index(leaf) not in target_sets[module]:
            continue
        selected.append((full_name, id_code, width, module))
        per_target[module] += 1

    if not selected:
        raise NoSignalsSelected(
            f"no signals selected for targets {sorted(target_sets)} under root "
            f"{'.'.join(root_parts)!r}"
        )
    return SelectionReport(
        selected=selected,
        dropped_count=len(hier_signals) - len(selected),
        per_target_counts=per_target,
    )
