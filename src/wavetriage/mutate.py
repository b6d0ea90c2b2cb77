"""Deterministic rule-based bug injector for Verilog/SystemVerilog sources.

Five bug types are planned from statically discovered sites:

* missing_assignment - an assignment statement is commented out
* wrong_assignment   - an assignment's right-hand side becomes a constant or
                       another same-width identifier of the module
* bitwise_corruption - one &/|/^/~ operator on a right-hand side is swapped
                       (~ is removed)
* logic_bug          - an if/while condition is negated, or an always_ff
                       edge flips between posedge and negedge
* data_size          - a declared packed range widens or narrows by one bit

Planning is pure (text in, spec out) and seeded, so identical sources and
seeds yield identical mutations. Applying edits files under hash guards and
every outcome except an accepted, in-use scenario reverts byte-exactly.
:func:`inject_batch` runs a seeded batch of scenarios over a design
directory; the ``inject`` and ``pipeline`` commands both use it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import random
import shlex
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Callable, Sequence

from . import rtl
from .rtl import ModuleLookupTable, Token, UnknownModule, is_identifier

BUG_TYPES = (
    "missing_assignment",
    "wrong_assignment",
    "bitwise_corruption",
    "logic_bug",
    "data_size",
)

STATUS_PENDING = "pending"
STATUS_ACCEPTED = "accepted"
STATUS_REJECTED_SYNTAX = "rejected_syntax"
STATUS_REJECTED_INEFFECTIVE = "rejected_ineffective"


class MutateError(Exception):
    pass


class NoEligibleSite(MutateError):
    def __init__(self, bug_type: str, module: str):
        super().__init__(f"no eligible {bug_type} site in module {module!r}")
        self.bug_type = bug_type
        self.module = module


class StaleFile(MutateError):
    pass


class HashMismatch(MutateError):
    pass


class CommandNotFound(MutateError):
    pass


@dataclass(frozen=True)
class MutationSpec:
    bug_type: str
    target_module: str
    file: str
    site_start: int
    site_end: int
    original: str
    replacement: str
    seed: int
    source_hash: str

    def site(self) -> tuple[int, int]:
        return (self.site_start, self.site_end)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "MutationSpec":
        return cls(**doc)


@dataclass
class PatchRecord:
    spec: MutationSpec
    pre_hash: str
    post_hash: str
    applied_at: float


@dataclass
class BugScenario:
    scenario_id: str
    patches: list[PatchRecord]
    label: str
    status: str = STATUS_PENDING
    attempts: int = 0


@dataclass(frozen=True)
class CheckCommands:
    """Compile and test command templates; exit code 0 means pass.

    Placeholders: {design_dir}, {scenario_id}. When ``vcd_out`` is set, an
    accepted scenario additionally requires that file to exist after the
    test command (failing waveform produced).
    """

    compile: str
    test: str
    timeout: float = 60.0
    vcd_out: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "CheckCommands":
        """From a config's ``check`` object; ``timeout`` and ``vcd_out`` are optional."""
        return cls(
            compile=doc["compile"],
            test=doc["test"],
            timeout=float(doc.get("timeout", 60.0)),
            vcd_out=doc.get("vcd_out"),
        )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_source(path) -> str:
    # newline='' keeps CR/LF bytes intact so hashes stay byte-faithful
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return handle.read()


def _write_source(path, text: str) -> None:
    """Replace ``path`` atomically: a failure mid-write leaves the old bytes."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Site discovery

_STMT_BOUNDARY = {";", "begin", "end", "else", ")", ":"}


@dataclass(frozen=True)
class _Assignment:
    stmt_start: int  # byte offsets
    stmt_end: int
    lhs_name: str
    rhs_start: int
    rhs_end: int
    rhs_tokens: tuple[Token, ...]
    is_declaration_init: bool = False


@dataclass(frozen=True)
class _Sites:
    assignments: list[_Assignment]
    conditions: list[tuple[int, int]]  # condition text span, inside parens
    edges: list[Token]  # posedge/negedge tokens inside always_ff event controls
    ranges: list[tuple[int, int, int, int]]  # span start/end, msb, lsb


def _discover_sites(text: str, tokens: list[Token], lo: int, hi: int) -> _Sites:
    assignments: list[_Assignment] = []
    conditions: list[tuple[int, int]] = []
    edges: list[Token] = []
    ranges_by_span: dict[tuple[int, int], tuple[int, int, int, int]] = {}

    depth = 0
    stmt_start = lo
    i = lo
    while i < hi:
        tok = tokens[i]
        t = tok.text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
            if depth <= 0:
                depth = 0
                stmt_start = i + 1
        elif depth == 0 and t in _STMT_BOUNDARY:
            stmt_start = i + 1
        elif t == "assign" and depth == 0:
            site = _scan_assignment(tokens, i + 1, hi, stmt_token=i)
            if site is not None:
                assignments.append(site)
        elif t in ("=", "<=") and depth == 0:
            start = stmt_start
            if start < i and is_identifier(tokens[start]):
                site = _scan_assignment(tokens, start, hi, stmt_token=start, op_index=i)
                if site is not None:
                    assignments.append(site)
        elif t in ("if", "while") and i + 1 < hi and tokens[i + 1].text == "(":
            close = _match_paren(tokens, i + 1, hi)
            if close is not None and close > i + 2:
                conditions.append((tokens[i + 2].start, tokens[close - 1].end))
        elif t == "always_ff":
            j = i + 1
            if j < hi and tokens[j].text == "@" and j + 1 < hi and tokens[j + 1].text == "(":
                close = _match_paren(tokens, j + 1, hi)
                if close is not None:
                    for k in range(j + 2, close):
                        if tokens[k].text in ("posedge", "negedge"):
                            edges.append(tokens[k])
        if t in rtl.DECL_TYPES or t in rtl.DIRECTIONS:
            found = _scan_packed_range(tokens, i + 1, hi)
            if found is not None:
                ranges_by_span[found[:2]] = found
        i += 1

    return _Sites(
        assignments=assignments,
        conditions=conditions,
        edges=edges,
        ranges=list(ranges_by_span.values()),
    )


def _match_paren(tokens: list[Token], open_index: int, hi: int) -> int | None:
    depth = 0
    for j in range(open_index, hi):
        t = tokens[j].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
            if depth == 0:
                return j
    return None


def _scan_assignment(
    tokens: list[Token], start: int, hi: int, stmt_token: int, op_index: int | None = None
) -> _Assignment | None:
    if op_index is None:
        # continuous assign: find '=' at depth 0
        depth = 0
        op_index = -1
        for j in range(start, hi):
            t = tokens[j].text
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
            elif t == "=" and depth == 0:
                op_index = j
                break
            elif t == ";":
                return None
        if op_index < 0:
            return None
        lhs_index = start
    else:
        lhs_index = start
    if not is_identifier(tokens[lhs_index]):
        return None
    depth = 0
    semi = -1
    for j in range(op_index + 1, hi):
        t = tokens[j].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == ";" and depth == 0:
            semi = j
            break
    if semi < 0 or semi == op_index + 1:
        return None
    return _Assignment(
        stmt_start=tokens[stmt_token].start,
        stmt_end=tokens[semi].end,
        lhs_name=tokens[lhs_index].text,
        rhs_start=tokens[op_index + 1].start,
        rhs_end=tokens[semi - 1].end,
        rhs_tokens=tuple(tokens[op_index + 1 : semi]),
    )


_INT = re.compile(r"^[0-9]+$")


def _scan_packed_range(tokens: list[Token], index: int, hi: int) -> tuple[int, int, int, int] | None:
    j = index
    if j < hi and tokens[j].text in ("signed", "unsigned"):
        j += 1
    if j < hi and tokens[j].text in rtl.DECL_TYPES:  # e.g. "output reg [7:0]"
        j += 1
        if j < hi and tokens[j].text in ("signed", "unsigned"):
            j += 1
    if (
        j + 4 < hi
        and tokens[j].text == "["
        and _INT.match(tokens[j + 1].text)
        and tokens[j + 2].text == ":"
        and _INT.match(tokens[j + 3].text)
        and tokens[j + 4].text == "]"
    ):
        return (
            tokens[j].start,
            tokens[j + 4].end,
            int(tokens[j + 1].text),
            int(tokens[j + 3].text),
        )
    return None


def _decl_width(decl_type: str) -> int | None:
    match = re.search(r"\[([0-9]+):([0-9]+)\]", decl_type)
    if match is None:
        return 1 if "[" not in decl_type else None
    msb, lsb = int(match.group(1)), int(match.group(2))
    return abs(msb - lsb) + 1


def _line_spans(text: str, start: int, end: int) -> tuple[int, int]:
    line_start = text.rfind("\n", 0, start) + 1
    line_end = text.find("\n", end)
    return line_start, len(text) if line_end < 0 else line_end


def _comment_out(text: str, start: int, end: int) -> str | None:
    """Replacement that comments out text[start:end], or None if impossible."""
    original = text[start:end]
    line_start, line_end = _line_spans(text, start, end)
    full_line = not text[line_start:start].strip() and not text[end:line_end].strip()
    if full_line:
        return "// " + original.replace("\n", "\n// ")
    if "*/" in original or "\n" in original:
        return None
    return "/* " + original + " */"


# ---------------------------------------------------------------------------
# Planning

SiteKey = tuple[str, int, int, str]  # (file, start, end, bug_type)


def plan(
    source: str,
    table: ModuleLookupTable,
    module: str,
    bug_type: str,
    seed: int,
    file: str = "<text>",
    excluded: frozenset[SiteKey] | set[SiteKey] = frozenset(),
) -> MutationSpec:
    """Pick an eligible site (seeded) and build the replacement text."""
    if bug_type not in BUG_TYPES:
        raise MutateError(f"unknown bug type {bug_type!r}")
    if module not in table.entries:
        raise UnknownModule(module)
    tokens = rtl.tokenize(source, file)
    body = rtl.module_body_ranges(tokens).get(module)
    if body is None:
        raise UnknownModule(f"{module} (not declared in {file})")
    sites = _discover_sites(source, tokens, body[0], body[1])
    rng = random.Random(seed)

    candidates: list[tuple[int, int, str]] = []  # (start, end, replacement)
    if bug_type == "missing_assignment":
        for a in sites.assignments:
            replacement = _comment_out(source, a.stmt_start, a.stmt_end)
            if replacement is not None:
                candidates.append((a.stmt_start, a.stmt_end, replacement))
    elif bug_type == "wrong_assignment":
        widths = {
            name: _decl_width(decl_type)
            for decl_type, names in table.entries[module].items()
            for name in names
        }
        for a in sites.assignments:
            rhs_text = source[a.rhs_start : a.rhs_end]
            width = widths.get(a.lhs_name)
            if width is None:
                continue
            options = sorted(
                name
                for name, w in widths.items()
                if w == width and name != a.lhs_name and name != rhs_text.strip()
            )
            if width == 1:
                options += ["1'b0", "1'b1"]
            else:
                options += [f"{width}'d0", f"{width}'d{(1 << width) - 1}"]
            options = [o for o in options if o != rhs_text.strip()]
            if options:
                choice = options[rng.randrange(len(options))]
                candidates.append((a.rhs_start, a.rhs_end, choice))
    elif bug_type == "bitwise_corruption":
        family = ("&", "|", "^")
        for a in sites.assignments:
            for tok in a.rhs_tokens:
                if tok.text in family:
                    others = [op for op in family if op != tok.text]
                    candidates.append((tok.start, tok.end, others[rng.randrange(2)]))
                elif tok.text == "~":
                    candidates.append((tok.start, tok.end, ""))
    elif bug_type == "logic_bug":
        for start, end in sites.conditions:
            candidates.append((start, end, f"!({source[start:end]})"))
        for tok in sites.edges:
            flipped = "negedge" if tok.text == "posedge" else "posedge"
            candidates.append((tok.start, tok.end, flipped))
    elif bug_type == "data_size":
        for start, end, msb, lsb in sites.ranges:
            if msb == lsb:
                deltas = [1]
            else:
                deltas = [1, -1]
            delta = deltas[rng.randrange(len(deltas))]
            candidates.append((start, end, f"[{msb + delta}:{lsb}]"))

    candidates = [
        c for c in candidates if (file, c[0], c[1], bug_type) not in excluded
    ]
    if not candidates:
        raise NoEligibleSite(bug_type, module)
    start, end, replacement = candidates[rng.randrange(len(candidates))]
    original = source[start:end]
    if replacement == original:
        raise NoEligibleSite(bug_type, module)
    return MutationSpec(
        bug_type=bug_type,
        target_module=module,
        file=file,
        site_start=start,
        site_end=end,
        original=original,
        replacement=replacement,
        seed=seed,
        source_hash=_sha256(source),
    )


def plan_scenario(
    design_dir,
    file: str,
    table: ModuleLookupTable,
    module: str,
    bug_types: Sequence[str],
    seed: int,
    excluded: frozenset[SiteKey] | set[SiteKey] = frozenset(),
) -> list[MutationSpec]:
    """Plan a chain of mutations in one file; each plan sees the previous
    patches applied, so the source hashes line up for sequential apply."""
    text = read_source(Path(design_dir) / file)
    specs = []
    for k, bug_type in enumerate(bug_types):
        spec = plan(text, table, module, bug_type, seed + k, file=file, excluded=excluded)
        specs.append(spec)
        text = text[: spec.site_start] + spec.replacement + text[spec.site_end :]
    return specs


# ---------------------------------------------------------------------------
# Apply / revert

def apply(spec: MutationSpec, design_dir=".") -> PatchRecord:
    path = Path(design_dir) / spec.file
    text = read_source(path)
    pre_hash = _sha256(text)
    if pre_hash != spec.source_hash:
        raise StaleFile(f"{spec.file} changed since the mutation was planned")
    if text[spec.site_start : spec.site_end] != spec.original:
        raise StaleFile(f"site bytes of {spec.file} do not match the plan")
    patched = text[: spec.site_start] + spec.replacement + text[spec.site_end :]
    _write_source(path, patched)
    return PatchRecord(
        spec=spec,
        pre_hash=pre_hash,
        post_hash=_sha256(patched),
        applied_at=time.time(),
    )


def revert(record: PatchRecord, design_dir=".") -> None:
    spec = record.spec
    path = Path(design_dir) / spec.file
    text = read_source(path)
    if _sha256(text) != record.post_hash:
        raise HashMismatch(f"{spec.file} changed after the patch was applied")
    end = spec.site_start + len(spec.replacement)
    restored = text[: spec.site_start] + spec.original + text[end:]
    if _sha256(restored) != record.pre_hash:
        raise HashMismatch(f"reverting {spec.file} did not restore the original bytes")
    _write_source(path, restored)


def revert_all(records: Sequence[PatchRecord], design_dir=".") -> None:
    for record in reversed(records):
        revert(record, design_dir)


# ---------------------------------------------------------------------------
# The apply -> check -> accept/revert loop

def _run_command(template: str, design_dir, scenario_id: str, timeout: float):
    args = [
        part.format(design_dir=str(design_dir), scenario_id=scenario_id)
        for part in shlex.split(template)
    ]
    try:
        proc = subprocess.run(
            args,
            timeout=timeout,
            capture_output=True,
        )
        return proc.returncode, False
    except FileNotFoundError as exc:
        raise CommandNotFound(f"check command not found: {args[0]!r}") from exc
    except subprocess.TimeoutExpired:
        return -1, True


def _log_failure(log_path, scenario_id: str, specs: Sequence[MutationSpec], reason: str):
    if log_path is None:
        return
    with open(log_path, "a", encoding="utf-8") as handle:
        for spec in specs:
            handle.write(
                json.dumps(
                    {
                        "scenario_id": scenario_id,
                        "file": spec.file,
                        "site_start": spec.site_start,
                        "site_end": spec.site_end,
                        "bug_type": spec.bug_type,
                        "reason": reason,
                    }
                )
                + "\n"
            )


def append_cache(cache_path, scenario_id: str, specs: Sequence[MutationSpec]) -> None:
    with open(cache_path, "a", encoding="utf-8") as handle:
        handle.write(
            json.dumps(
                {
                    "scenario_id": scenario_id,
                    "module": specs[0].target_module if specs else "",
                    "specs": [spec.to_dict() for spec in specs],
                }
            )
            + "\n"
        )


def load_cache(cache_path) -> list[dict]:
    entries = []
    with open(cache_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def replay_cached(entry: dict, design_dir=".") -> list[PatchRecord]:
    """Re-apply a cached accepted scenario; reproduces the identical diff."""
    specs = [MutationSpec.from_dict(doc) for doc in entry["specs"]]
    records = []
    for spec in specs:
        records.append(apply(spec, design_dir))
    return records


def run_scenario(
    scenario_id: str,
    specs: Sequence[MutationSpec],
    check: CheckCommands,
    design_dir=".",
    cache_path=None,
    failure_log_path=None,
) -> BugScenario:
    """Apply the patches, compile, test; accept or revert.

    Nonzero compile exit rejects for syntax; a fully passing test run
    rejects as ineffective; otherwise the scenario is accepted and its
    patches stay applied for the simulation stage. Timeouts count as
    ineffective. Every rejection reverts byte-exactly.
    """
    if not specs:
        raise MutateError("empty mutation list")
    modules = {spec.target_module for spec in specs}
    if len(modules) != 1:
        raise MutateError(f"scenario spans multiple modules: {sorted(modules)}")
    label = specs[0].target_module

    records: list[PatchRecord] = []
    try:
        for spec in specs:
            records.append(apply(spec, design_dir))
    except MutateError:
        revert_all(records, design_dir)
        raise

    scenario = BugScenario(scenario_id=scenario_id, patches=records, label=label, attempts=1)

    try:
        rc, timed_out = _run_command(check.compile, design_dir, scenario_id, check.timeout)
        if timed_out or rc != 0:
            scenario.status = (
                STATUS_REJECTED_INEFFECTIVE if timed_out else STATUS_REJECTED_SYNTAX
            )
            _log_failure(failure_log_path, scenario_id, specs, "timeout" if timed_out else "syntax")
            revert_all(records, design_dir)
            return scenario

        rc, timed_out = _run_command(check.test, design_dir, scenario_id, check.timeout)
        if timed_out or rc == 0:
            scenario.status = STATUS_REJECTED_INEFFECTIVE
            _log_failure(
                failure_log_path, scenario_id, specs, "timeout" if timed_out else "ineffective"
            )
            revert_all(records, design_dir)
            return scenario

        if check.vcd_out is not None:
            artifact = Path(
                check.vcd_out.format(design_dir=str(design_dir), scenario_id=scenario_id)
            )
            if not artifact.exists():
                scenario.status = STATUS_REJECTED_INEFFECTIVE
                _log_failure(failure_log_path, scenario_id, specs, "no waveform")
                revert_all(records, design_dir)
                return scenario
    except CommandNotFound:
        revert_all(records, design_dir)
        raise

    scenario.status = STATUS_ACCEPTED
    if cache_path is not None:
        append_cache(cache_path, scenario_id, specs)
    return scenario


Planner = Callable[[int, "frozenset[SiteKey]"], list[MutationSpec]]


def generate_scenario(
    scenario_id: str,
    planner: Planner,
    check: CheckCommands,
    design_dir=".",
    cache_path=None,
    failure_log_path=None,
    max_attempts: int = 10,
) -> BugScenario:
    """The full accept-or-retry loop around run_scenario.

    ``planner`` receives (attempt index, excluded site keys) and returns the
    mutation chain to try; rejected sites accumulate into the exclusion set
    so repeated failures are not retried. The default planner hook is
    :func:`plan_scenario` via a lambda; an external planner can slot in the
    same way.
    """
    excluded: set[SiteKey] = set()
    scenario = BugScenario(scenario_id=scenario_id, patches=[], label="")
    for attempt in range(max_attempts):
        try:
            specs = planner(attempt, frozenset(excluded))
        except NoEligibleSite:
            scenario.attempts = attempt + 1
            scenario.status = STATUS_REJECTED_INEFFECTIVE
            return scenario
        scenario = run_scenario(
            scenario_id,
            specs,
            check,
            design_dir=design_dir,
            cache_path=cache_path,
            failure_log_path=failure_log_path,
        )
        scenario.attempts = attempt + 1
        if scenario.status == STATUS_ACCEPTED:
            return scenario
        for spec in specs:
            excluded.add((spec.file, spec.site_start, spec.site_end, spec.bug_type))
    return scenario


def inject_batch(
    design_dir,
    modules: Sequence[str],
    bug_types: Sequence[str],
    count: int,
    check: CheckCommands,
    seed_base: int,
    cache_path=None,
    failure_log_path=None,
    max_attempts: int = 5,
    keep_applied: bool = False,
) -> list[tuple[str, str, BugScenario]]:
    """Run ``count`` scenarios round-robin over ``modules`` and ``bug_types``.

    Scenario ``i`` has id ``inject-{module}-{i:04d}`` and plans attempt ``a``
    with seed ``seed_base + i*101 + a`` in the first sorted ``*.sv`` file
    that declares its module. An undeclared module raises
    :class:`~wavetriage.rtl.UnknownModule` before any file is touched.
    Accepted patches are reverted unless ``keep_applied``. Returns
    ``(module, bug_type, scenario)`` per scenario.
    """
    design_dir = Path(design_dir)
    sources = rtl.DesignSources.from_paths(sorted(design_dir.glob("*.sv")))
    table = rtl.scan_sources(sources)
    file_of: dict[str, str] = {}
    for path, text in sources.files:
        for module in rtl.module_body_ranges(rtl.tokenize(text, path)):
            file_of.setdefault(module, Path(path).name)
    for module in modules:
        if module not in file_of:
            raise UnknownModule(module)

    results = []
    for i in range(count):
        module = modules[i % len(modules)]
        bug_type = bug_types[i % len(bug_types)]
        scenario = generate_scenario(
            f"inject-{module}-{i:04d}",
            # called only inside this iteration, so the loop variables are current
            lambda attempt, excluded: plan_scenario(
                design_dir,
                file_of[module],
                table,
                module,
                [bug_type],
                seed_base + i * 101 + attempt,
                excluded=excluded,
            ),
            check,
            design_dir=design_dir,
            cache_path=cache_path,
            failure_log_path=failure_log_path,
            max_attempts=max_attempts,
        )
        if scenario.status == STATUS_ACCEPTED and not keep_applied:
            revert_all(scenario.patches, design_dir)
        results.append((module, bug_type, scenario))
    return results
