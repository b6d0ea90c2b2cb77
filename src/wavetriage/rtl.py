"""Verilog/SystemVerilog declaration scanner.

Builds the module lookup table: for every module, the declared variables
grouped by their declared type, plus the submodule instantiations needed to
resolve VCD scope paths back to modules. The supported grammar subset covers
module headers (ANSI and non-ANSI ports), net/variable declarations with
packed dimensions, parameters, and module instantiation; procedural bodies
are skipped opaquely.

The tokenizer keeps byte offsets into the original source so downstream
tools (the bug injector) can plan byte-exact edits.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from typing import Iterable

from . import DataError


class RtlError(DataError):
    pass


class ParseError(RtlError):
    def __init__(self, file: str, line: int, expected: str):
        super().__init__(f"{file}:{line}: expected {expected}")
        self.file = file
        self.line = line
        self.expected = expected


class DuplicateModule(RtlError):
    def __init__(self, name: str):
        super().__init__(f"module {name!r} declared twice")
        self.name = name


class UnknownModule(RtlError):
    def __init__(self, name: str):
        super().__init__(f"unknown module {name!r}")
        self.name = name


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int
    line: int


@dataclass
class ModuleLookupTable:
    """module -> declared type -> variable names, plus instantiation edges.

    Parameters are recorded separately so they are never treated as
    selectable signals.
    """

    entries: dict[str, dict[str, set[str]]] = field(default_factory=dict)
    instances: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    params: dict[str, set[str]] = field(default_factory=dict)

    def leaf_names(self, module: str) -> set[str]:
        if module not in self.entries:
            raise UnknownModule(module)
        names: set[str] = set()
        for group in self.entries[module].values():
            names |= group
        return names

    def decl_type_of(self, module: str, name: str) -> str | None:
        for decl_type, group in self.entries.get(module, {}).items():
            if name in group:
                return decl_type
        return None

    def to_json(self) -> str:
        modules = {m: {dt: sorted(names) for dt, names in g.items()} for m, g in self.entries.items()}
        params = {m: sorted(p) for m, p in self.params.items() if p}
        return json.dumps(asdict(_TableJson(modules, self.instances, params)), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModuleLookupTable":
        """The table of :meth:`to_json`'s text, each key optional; a value
        of the wrong JSON type raises ValueError naming its key."""
        from .sysio import json_fields  # here: a check command that only scans stays light

        doc = json_fields(_TableJson, json.loads(text), "lookup table", what="a lookup table")
        table = cls()
        for module, groups in doc.modules.items():
            table.entries[module] = {dt: set(names) for dt, names in groups.items()}
            table.instances[module] = doc.instances.get(module, [])
            table.params[module] = set(doc.parameters.get(module, []))
        return table


@dataclass
class _TableJson:
    """A :class:`ModuleLookupTable` as its ``to_json`` writes it."""

    modules: dict[str, dict[str, list[str]]] = field(default_factory=dict)
    instances: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    parameters: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class DesignSources:
    files: list[tuple[str, str]]

    @classmethod
    def from_paths(cls, paths: Iterable) -> "DesignSources":
        files = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                files.append((str(path), handle.read()))
        return cls(files=files)


# ---------------------------------------------------------------------------
# Tokenizer

_ID_START = re.compile(r"[A-Za-z_]")

_MULTI_OPS = (
    "<<<=", ">>>=",
    "===", "!==", "==?", "!=?", "<<<", ">>>", "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "**", "+:", "-:",
    "::", "->", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", "~&", "~|", "~^", "^~", "@*",
)

# One alternation, tried in order at each position: skipped text (blanks,
# comments, and attributes, where ``(*)`` is an event list and not one); a
# string; an unclosed comment, attribute or string; then an escaped
# identifier, a directive, an identifier, a number, an operator or any one
# character. Only the first two alternatives can hold a newline.
_NUM = r"[0-9a-fA-FxXzZ_?.]*"
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\f\n]+|//[^\n]*|/\*.*?\*/|\(\*(?!\)).*?\*\))"
    r'|"(?:[^"\\]|\\.)*"'
    r'|(?P<comment>/\*)|(?P<attribute>\(\*(?!\)))|(?P<string>")'
    r"|\\\S*|`[A-Za-z0-9_$]*|[A-Za-z_][A-Za-z0-9_$]*"
    rf"|(?=[0-9]|'[bodhBODH01xXzZ]){_NUM}(?:'[sS]?[bodhBODH]?{_NUM})?"
    + "".join("|" + re.escape(op) for op in _MULTI_OPS)
    + "|.",
    re.S,
)
_UNCLOSED = {"comment": "closing */", "attribute": "closing *)", "string": "closing quote"}

KEYWORDS = frozenset(
    """module endmodule input output inout wire reg logic bit integer int tri
    tri0 tri1 triand trior wand wor supply0 supply1 real realtime time byte
    shortint longint genvar signed unsigned parameter localparam assign
    always always_ff always_comb always_latch initial final begin end if else
    for while repeat forever case casex casez endcase default function
    endfunction task endtask generate endgenerate posedge negedge or and not
    specify endspecify fork join join_any join_none return typedef enum
    struct packed unique priority import export defparam""".split()
)

DECL_TYPES = frozenset(
    """wire reg logic bit integer int tri tri0 tri1 triand trior wand wor
    supply0 supply1 real realtime time byte shortint longint genvar""".split()
)

DIRECTIONS = frozenset({"input", "output", "inout"})

PROCEDURAL = frozenset(
    {"always", "always_ff", "always_comb", "always_latch", "initial", "final"}
)


def tokenize(text: str, file: str = "<text>") -> list[Token]:
    """Lex Verilog source, skipping comments and attributes."""
    tokens: list[Token] = []
    line, last = 1, 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "skip":
            continue
        start = match.start()
        line += text.count("\n", last, start)
        last = start
        if kind is not None:
            raise ParseError(file, line, _UNCLOSED[kind])
        tokens.append(Token(match.group(), start, match.end(), line))
    return tokens


def is_identifier(tok: Token) -> bool:
    t = tok.text
    if t.startswith("\\"):
        return len(t) > 1
    return bool(_ID_START.match(t[0])) and t not in KEYWORDS


# ---------------------------------------------------------------------------
# Scanner

OPENERS = frozenset("([{")
CLOSERS = frozenset(")]}")


def unenclosed(tokens: list[Token], start: int, stops, end: int | None = None) -> int | None:
    """Index of the first token in ``tokens[start:end]`` whose text is in
    ``stops`` and that no bracket opened at or after ``start`` encloses, or
    None. Bracket kinds are not matched against each other, and a closer
    that is not a stop and closes nothing moves the scan one level out."""
    depth = 0
    for j in range(start, len(tokens) if end is None else end):
        text = tokens[j].text
        if depth == 0 and text in stops:
            return j
        if text in OPENERS:
            depth += 1
        elif text in CLOSERS:
            depth -= 1
    return None


class _Cursor:
    def __init__(self, tokens: list[Token], file: str):
        self.tokens = tokens
        self.file = file
        self.i = 0

    def eof(self) -> bool:
        return self.i >= len(self.tokens)

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def peek_text(self) -> str:
        tok = self.peek()
        return tok.text if tok else ""

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(self.file, self.last_line(), "more input")
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.advance()
        if tok.text != text:
            raise ParseError(self.file, tok.line, f"{text!r} (found {tok.text!r})")
        return tok

    def last_line(self) -> int:
        return self.tokens[-1].line if self.tokens else 1

    def skip_balanced(self):
        """Consume one bracketed group starting at the current token."""
        opener = self.advance()
        if opener.text not in OPENERS:
            raise ParseError(self.file, opener.line, "( or [ or {")
        self.skip_to(*CLOSERS)

    def skip_to(self, *stops: str, balanced: bool = True) -> Token:
        """Consume tokens up to and including the first stop that no bracket
        encloses (with ``balanced``) or the first stop at all."""
        tokens = self.tokens
        if balanced:
            j = unenclosed(tokens, self.i, stops)
        else:
            j = next((k for k in range(self.i, len(tokens)) if tokens[k].text in stops), None)
        if j is None:
            raise ParseError(self.file, self.last_line(), "more input")
        self.i = j + 1
        return tokens[j]

    def stop_before(self, stops, expected: str) -> str:
        """Move to the first stop that no bracket encloses, without
        consuming it, and return its text."""
        j = unenclosed(self.tokens, self.i, stops)
        if j is None:
            raise ParseError(self.file, self.last_line(), expected)
        self.i = j
        return self.tokens[j].text

    def skip_directive_line(self, line: int):
        while not self.eof() and self.tokens[self.i].line == line:
            self.i += 1


class _ModuleScan:
    def __init__(self, name: str):
        self.name = name
        self.var_types: dict[str, str] = {}  # name -> decl_type, last var decl wins
        self.params: set[str] = set()
        self.instances: list[tuple[str, str]] = []

    def record_var(self, name: str, decl_type: str, weak: bool = False):
        if weak and name in self.var_types:
            return
        self.var_types[name] = decl_type


def _scan_packed_dims(cur: _Cursor) -> str:
    dims = ""
    while cur.peek_text() == "[":
        start = cur.i
        cur.skip_balanced()
        dims += "".join(tok.text for tok in cur.tokens[start : cur.i])
    return dims


def _scan_decl_statement(cur: _Cursor, scan: _ModuleScan, base: str, weak: bool = False):
    """Parse `<base> [signed] [dims] name [dims] [= expr] {, ...} ;`."""
    decl_type = base
    if cur.peek_text() in ("signed", "unsigned"):
        decl_type += " " + cur.advance().text
    dims = _scan_packed_dims(cur)
    if dims:
        decl_type += " " + dims
    while True:
        tok = cur.advance()
        if not is_identifier(tok):
            raise ParseError(cur.file, tok.line, f"identifier (found {tok.text!r})")
        scan.record_var(tok.text, decl_type, weak=weak)
        while cur.peek_text() == "[":  # unpacked dims
            cur.skip_balanced()
        nxt = cur.advance()
        if nxt.text == "=":
            nxt = cur.skip_to(",", ";")
        if nxt.text == ";":
            return
        if nxt.text != ",":
            raise ParseError(cur.file, nxt.line, f"',' or ';' (found {nxt.text!r})")


def _scan_param_statement(cur: _Cursor, scan: _ModuleScan, *, in_header: bool = False):
    """Parse a parameter/localparam declaration; names recorded, not selected."""
    if cur.peek_text() == "type":
        cur.advance()
    elif cur.peek_text() in DECL_TYPES:
        cur.advance()
        if cur.peek_text() in ("signed", "unsigned"):
            cur.advance()
        _scan_packed_dims(cur)
    else:
        _scan_packed_dims(cur)
    while True:
        tok = cur.advance()
        if not is_identifier(tok):
            raise ParseError(cur.file, tok.line, f"parameter name (found {tok.text!r})")
        scan.params.add(tok.text)
        if cur.peek_text() == "=":
            cur.advance()
            # value expression: stop before the separator
            if cur.stop_before((",", ";", ")"), "end of parameter value") == ")":
                return  # header list closes; caller consumes ')'
        sep = cur.peek_text()
        if sep == "," :
            cur.advance()
            if cur.peek_text() in ("parameter", "localparam"):
                cur.advance()
                return _scan_param_statement(cur, scan, in_header=in_header)
            continue
        if sep == ";":
            cur.advance()
            return
        if in_header and sep == ")":
            return
        raise ParseError(cur.file, cur.peek().line if cur.peek() else cur.last_line(), "',' or ';'")


def _scan_ansi_ports(cur: _Cursor, scan: _ModuleScan):
    """Scan the parenthesized ANSI port list. Cursor sits just after '('."""
    decl_type = "wire"
    while True:
        tok = cur.peek()
        if tok is None:
            raise ParseError(cur.file, cur.last_line(), "')' closing port list")
        if tok.text == ")":
            cur.advance()
            return
        if tok.text == ",":
            cur.advance()
            continue
        if tok.text in DIRECTIONS:
            cur.advance()
            decl_type = "wire"  # new direction resets the default type
            continue
        if tok.text in ("parameter", "localparam"):
            cur.advance()
            _scan_param_statement(cur, scan, in_header=True)
            continue
        if tok.text in DECL_TYPES:
            base = cur.advance().text
            if cur.peek_text() in ("signed", "unsigned"):
                base += " " + cur.advance().text
            dims = _scan_packed_dims(cur)
            decl_type = base + (" " + dims if dims else "")
            continue
        if tok.text == "[":
            dims = _scan_packed_dims(cur)
            decl_type = "wire " + dims
            continue
        if tok.text in ("signed", "unsigned"):
            cur.advance()
            continue
        if is_identifier(tok):
            cur.advance()
            scan.record_var(tok.text, decl_type)
            while cur.peek_text() == "[":
                cur.skip_balanced()
            if cur.peek_text() == "=":
                cur.advance()
                cur.stop_before((",", ")"), "port default value")
            continue
        raise ParseError(cur.file, tok.line, f"port declaration (found {tok.text!r})")


def _header_is_ansi(cur: _Cursor) -> bool:
    """Peek inside the '(' at the cursor to decide ANSI vs. non-ANSI port style."""
    j = cur.i + 1
    tokens = cur.tokens
    while j < len(tokens):
        t = tokens[j].text
        if t == ")":
            return False
        if t in DIRECTIONS or t in DECL_TYPES or t in ("parameter", "localparam"):
            return True
        if t in (".", "{"):
            return False
        if is_identifier(tokens[j]) or t in (",", "[", "]") or t == "signed":
            j += 1
            continue
        return False
    return False


def _skip_statement(cur: _Cursor):
    """Skip one procedural statement (used for always/initial bodies)."""
    tok = cur.peek()
    if tok is None:
        raise ParseError(cur.file, cur.last_line(), "statement")
    text = tok.text
    if text == "begin":
        cur.advance()
        if cur.peek_text() == ":":
            cur.advance()
            cur.advance()
        depth = 1
        while depth:
            t = cur.advance().text
            if t in ("begin", "fork"):
                depth += 1
            elif t in ("case", "casex", "casez"):
                depth += 1
            elif t in ("end", "join", "join_any", "join_none", "endcase"):
                depth -= 1
        return
    if text in ("case", "casex", "casez"):
        cur.advance()
        if cur.peek_text() == "(":
            cur.skip_balanced()
        depth = 1
        while depth:
            t = cur.advance().text
            if t in ("case", "casex", "casez"):
                depth += 1
            elif t == "endcase":
                depth -= 1
        return
    if text in ("if",):
        cur.advance()
        if cur.peek_text() == "(":
            cur.skip_balanced()
        _skip_statement(cur)
        if cur.peek_text() == "else":
            cur.advance()
            _skip_statement(cur)
        return
    if text in ("for", "while", "repeat"):
        cur.advance()
        if cur.peek_text() == "(":
            cur.skip_balanced()
        _skip_statement(cur)
        return
    if text == "forever":
        cur.advance()
        _skip_statement(cur)
        return
    if text == "@":
        cur.advance()
        if cur.peek_text() == "(":
            cur.skip_balanced()
        else:
            cur.advance()  # @* or @identifier
        _skip_statement(cur)
        return
    if text == "@*":
        cur.advance()
        _skip_statement(cur)
        return
    if text == "#":
        cur.advance()
        if cur.peek_text() == "(":
            cur.skip_balanced()
        else:
            cur.advance()
        _skip_statement(cur)
        return
    if text == ";":
        cur.advance()
        return
    cur.skip_to(";")


def _scan_case_in_generate(cur: _Cursor, file: str):
    # generate-level case: skip the header, then every item through the
    # matching endcase; nothing inside it is scanned
    cur.advance()  # case keyword
    cur.skip_balanced()  # (expr)
    depth = 1
    while depth:
        tok = cur.peek()
        if tok is None:
            raise ParseError(file, cur.last_line(), "endcase")
        cur.advance()
        if tok.text == "endcase":
            depth -= 1
        elif tok.text in ("case", "casex", "casez"):
            depth += 1


def _scan_instance(cur: _Cursor, scan: _ModuleScan):
    child = cur.advance().text
    if cur.peek_text() == "#":
        cur.advance()
        cur.skip_balanced()
    while True:
        inst_tok = cur.advance()
        if not is_identifier(inst_tok):
            raise ParseError(cur.file, inst_tok.line, f"instance name (found {inst_tok.text!r})")
        while cur.peek_text() == "[":  # instance array range
            cur.skip_balanced()
        scan.instances.append((child, inst_tok.text))
        if cur.peek_text() == "(":
            cur.skip_balanced()
        sep = cur.advance()
        if sep.text == ";":
            return
        if sep.text != ",":
            raise ParseError(cur.file, sep.line, f"',' or ';' (found {sep.text!r})")


def _scan_module_body(cur: _Cursor, scan: _ModuleScan, terminator: str):
    file = cur.file
    while True:
        tok = cur.peek()
        if tok is None:
            raise ParseError(file, cur.last_line(), terminator)
        text = tok.text
        if text == terminator:
            cur.advance()
            return
        if text.startswith("`"):
            line = tok.line
            cur.advance()
            cur.skip_directive_line(line)
            continue
        if text == ";":
            cur.advance()
            continue
        if text in DIRECTIONS:
            cur.advance()
            base = "wire"
            weak = True
            if cur.peek_text() in DECL_TYPES:
                base = cur.advance().text
                weak = False
            _scan_decl_statement(cur, scan, base, weak=weak)
            continue
        if text in DECL_TYPES:
            cur.advance()
            _scan_decl_statement(cur, scan, text)
            if text == "genvar":
                # elaboration-time index, recorded alongside parameters
                for name, decl_type in list(scan.var_types.items()):
                    if decl_type == "genvar":
                        del scan.var_types[name]
                        scan.params.add(name)
            continue
        if text in ("parameter", "localparam"):
            cur.advance()
            _scan_param_statement(cur, scan)
            continue
        if text in ("assign", "defparam", "import", "export", "typedef"):
            cur.advance()
            cur.skip_to(";")
            continue
        if text in PROCEDURAL:
            cur.advance()
            _skip_statement(cur)
            continue
        if text == "function":
            cur.skip_to("endfunction", balanced=False)
            continue
        if text == "task":
            cur.skip_to("endtask", balanced=False)
            continue
        if text == "specify":
            cur.skip_to("endspecify", balanced=False)
            continue
        if text == "generate":
            cur.advance()
            _scan_module_body(cur, scan, "endgenerate")
            continue
        if text in ("for", "if"):
            cur.advance()
            if cur.peek_text() == "(":
                cur.skip_balanced()
            continue
        if text == "else":
            cur.advance()
            continue
        if text in ("case", "casex", "casez"):
            _scan_case_in_generate(cur, file)
            continue
        if text == "begin":
            cur.advance()
            if cur.peek_text() == ":":
                cur.advance()
                cur.advance()
            continue
        if text == "end":
            cur.advance()
            continue
        if is_identifier(tok):
            _scan_instance(cur, scan)
            continue
        raise ParseError(file, tok.line, f"declaration or instantiation (found {text!r})")


def _scan_file(path: str, text: str, table: ModuleLookupTable):
    cur = _Cursor(tokenize(text, path), path)
    while not cur.eof():
        tok = cur.peek()
        if tok.text.startswith("`"):
            line = tok.line
            cur.advance()
            cur.skip_directive_line(line)
            continue
        if tok.text != "module":
            raise ParseError(path, tok.line, f"'module' (found {tok.text!r})")
        cur.advance()
        name_tok = cur.advance()
        if not is_identifier(name_tok):
            raise ParseError(path, name_tok.line, "module name")
        if name_tok.text in table.entries:
            raise DuplicateModule(name_tok.text)
        scan = _ModuleScan(name_tok.text)
        while cur.peek_text() == "import":
            cur.skip_to(";")
        if cur.peek_text() == "#":
            cur.advance()
            cur.expect("(")
            while cur.peek_text() != ")":
                if cur.peek_text() in ("parameter", "localparam"):
                    cur.advance()
                _scan_param_statement(cur, scan, in_header=True)
                if cur.peek_text() == ",":
                    cur.advance()
            cur.expect(")")
        if cur.peek_text() == "(":
            if _header_is_ansi(cur):
                cur.advance()
                _scan_ansi_ports(cur, scan)
            else:
                cur.skip_balanced()
        cur.expect(";")
        _scan_module_body(cur, scan, "endmodule")

        groups: dict[str, set[str]] = {}
        for name, decl_type in scan.var_types.items():
            groups.setdefault(decl_type, set()).add(name)
        table.entries[scan.name] = groups
        table.instances[scan.name] = scan.instances
        table.params[scan.name] = scan.params


def scan_sources(sources: DesignSources) -> ModuleLookupTable:
    """Build the module lookup table from design sources.

    Deterministic for identical input bytes; whitespace and comments do not
    affect the result.
    """
    table = ModuleLookupTable()
    for path, text in sources.files:
        _scan_file(path, text, table)
    return table


def signals_for_targets(
    table: ModuleLookupTable, targets: Iterable[str]
) -> dict[str, set[str]]:
    """Leaf variable names per target module.

    Each target maps to exactly its own declared names: labels stay
    per-module, so a parent target never absorbs a child target's variables.
    """
    out: dict[str, set[str]] = {}
    for target in targets:
        out[target] = table.leaf_names(target)
    return out


def module_body_ranges(tokens: list[Token]) -> dict[str, tuple[int, int]]:
    """Token index range [start, end) of each module's contents.

    The range starts at the token after the module name and ends at the
    matching ``endmodule`` (exclusive). Modules do not nest.
    """
    ranges: dict[str, tuple[int, int]] = {}
    i = 0
    while i < len(tokens):
        if tokens[i].text == "module" and i + 1 < len(tokens):
            name = tokens[i + 1].text
            start = i + 2
            j = start
            while j < len(tokens) and tokens[j].text != "endmodule":
                j += 1
            ranges[name] = (start, j)
            i = j + 1
        else:
            i += 1
    return ranges
