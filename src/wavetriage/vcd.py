"""Streaming reader and writer for IEEE-1364 Value Change Dump files.

Pure standard library on purpose: the parser must run under a tight memory
ceiling and inside subprocesses that should not pay the numpy import cost.

The reader is split in two halves that share one file object:

* :func:`parse_header` consumes the declaration section line by line and
  stops exactly at the line after ``$enddefinitions $end``, so the same
  stream can then be handed to :func:`stream_changes`.
* :func:`stream_changes` returns a :class:`ChangeStream` that reads the
  body in blocks of ``_BLOCK_CHARS`` characters, with memory use
  independent of body length. Iterated, it yields :class:`ValueChange`
  records one at a time from a per-token loop. Through
  :meth:`ChangeStream.blocks` it hands each block to a decoder instead
  (``extract`` decodes them with numpy) and runs the per-token loop only
  on the blocks the decoder declines; that loop raises every format error,
  with the same class and message on either path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Union

from . import DataError

TIME_UNITS = ("s", "ms", "us", "ns", "ps", "fs")
TIME_MAGNITUDES = (1, 10, 100)

# 64-bit unsigned tick budget; larger timestamps are an error, not wraparound.
MAX_TICK = 2**64 - 1

# IEEE-1364 / 1800 var kinds we normalize. Anything unknown maps to "other"
# because real dumps contain tool-specific kinds.
_KIND_MAP = {
    "wire": "wire",
    "reg": "reg",
    "logic": "logic",
    "bit": "logic",
    "integer": "integer",
}

_SCALAR_CHARS = frozenset("01xzXZ")
# text.translate(_DROP_VECTOR_CHARS) keeps only what a vector value may not hold
_DROP_VECTOR_CHARS = str.maketrans("", "", "01xz")

# Characters per read when the body comes from a file-like object.
_BLOCK_CHARS = 1 << 18

# Identifier codes may be any printable chars including '$', so only these
# exact words are treated as body keywords.
_BODY_KEYWORDS = frozenset(
    {"$end", "$comment", "$dumpvars", "$dumpall", "$dumpon", "$dumpoff"}
)


class VcdError(DataError):
    """Base class for all VCD format errors."""


class MalformedHeader(VcdError):
    pass


class DuplicateFullName(VcdError):
    pass


class MalformedChange(VcdError):
    pass


class TimeRegression(VcdError):
    """A ``#`` timestamp went backwards."""


class UndeclaredId(VcdError):
    pass


@dataclass(frozen=True)
class Timescale:
    magnitude: int = 1
    unit: str = "ns"

    def __post_init__(self):
        if self.magnitude not in TIME_MAGNITUDES:
            raise MalformedHeader(f"illegal timescale magnitude {self.magnitude!r}")
        if self.unit not in TIME_UNITS:
            raise MalformedHeader(f"illegal timescale unit {self.unit!r}")

    def __str__(self) -> str:
        return f"{self.magnitude}{self.unit}"


@dataclass(frozen=True)
class SignalDecl:
    """One ``$var`` declaration. ``kind`` is normalized; ``kind_raw`` keeps the
    token as written so a parsed tree can be re-emitted losslessly."""

    id_code: str
    name: str
    width: int
    kind: str
    scope_path: tuple[str, ...]
    kind_raw: str = ""

    def __post_init__(self):
        if not self.id_code:
            raise MalformedHeader("empty identifier code")
        if self.width < 1:
            raise MalformedHeader(f"illegal width {self.width} for {self.name!r}")
        if not self.scope_path:
            raise MalformedHeader(f"$var {self.name!r} outside any scope")
        if not self.kind_raw:
            object.__setattr__(self, "kind_raw", self.kind)

    @property
    def full_name(self) -> str:
        return ".".join(self.scope_path) + "." + self.name


@dataclass
class Scope:
    name: str
    kind: str = "module"
    items: list[Union["Scope", SignalDecl]] = field(default_factory=list)


@dataclass
class ScopeTree:
    timescale: Timescale = field(default_factory=Timescale)
    roots: list[Scope] = field(default_factory=list)

    def iter_signals(self) -> Iterator[SignalDecl]:
        """All declarations in depth-first declaration order."""
        stack = [iter(self.roots)]
        while stack:
            try:
                item = next(stack[-1])
            except StopIteration:
                stack.pop()
                continue
            if isinstance(item, SignalDecl):
                yield item
            else:
                stack.append(iter(item.items))

    def id_widths(self) -> dict[str, int]:
        """id_code -> declared width (first declaration wins for aliases)."""
        widths: dict[str, int] = {}
        for sig in self.iter_signals():
            widths.setdefault(sig.id_code, sig.width)
        return widths


class ValueChange(NamedTuple):
    time: int
    id_code: str
    value: str  # "0"/"1"/"x"/"z", vector bits like "x01", or real like "r1.5"


def list_full_names(tree: ScopeTree) -> list[tuple[str, str, int]]:
    """Depth-first, declaration-ordered ``(full_name, id_code, width)`` list."""
    return [(s.full_name, s.id_code, s.width) for s in tree.iter_signals()]


def _read_text_line(stream) -> str | None:
    line = stream.readline()
    if not line:
        return None
    if isinstance(line, bytes):
        return line.decode("latin-1")
    return line


def parse_header(stream: IO) -> ScopeTree:
    """Parse the declaration section of a VCD file.

    Accepts text or binary file-like objects. On return the stream is
    positioned at the first change record (the line following
    ``$enddefinitions $end``).
    """
    tree = ScopeTree()
    scope_stack: list[Scope] = []
    seen_names: set[tuple[tuple[str, ...], str]] = set()

    tokens: list[str] = []
    pos = 0

    def next_token() -> str:
        nonlocal tokens, pos
        while pos >= len(tokens):
            line = _read_text_line(stream)
            if line is None:
                raise MalformedHeader("unexpected end of file before $enddefinitions")
            tokens = line.split()
            pos = 0
        tok = tokens[pos]
        pos += 1
        return tok

    def skip_until_end() -> list[str]:
        body = []
        while True:
            tok = next_token()
            if tok == "$end":
                return body
            body.append(tok)

    while True:
        tok = next_token()
        if tok in ("$comment", "$date", "$version"):
            skip_until_end()
        elif tok == "$timescale":
            body = skip_until_end()
            joined = "".join(body)
            mag_part = joined.rstrip("smunpf")
            unit_part = joined[len(mag_part):]
            try:
                magnitude = int(mag_part)
            except ValueError:
                raise MalformedHeader(f"bad $timescale {' '.join(body)!r}") from None
            tree.timescale = Timescale(magnitude, unit_part)
        elif tok == "$scope":
            kind = next_token()
            name = next_token()
            if next_token() != "$end":
                raise MalformedHeader("unterminated $scope directive")
            scope = Scope(name=name, kind=kind)
            if scope_stack:
                scope_stack[-1].items.append(scope)
            else:
                tree.roots.append(scope)
            scope_stack.append(scope)
        elif tok == "$upscope":
            if next_token() != "$end":
                raise MalformedHeader("unterminated $upscope directive")
            if not scope_stack:
                raise MalformedHeader("$upscope with no open scope")
            scope_stack.pop()
        elif tok == "$var":
            body = skip_until_end()
            if len(body) < 4:
                raise MalformedHeader(f"$var with too few fields: {' '.join(body)!r}")
            kind_raw, width_tok, id_code, name = body[0], body[1], body[2], body[3]
            # Optional bit-range token ("data [7:0]") folds into the name so
            # split buses stay distinct.
            for extra in body[4:]:
                if extra.startswith("["):
                    name += extra
                else:
                    raise MalformedHeader(f"unexpected token {extra!r} in $var")
            try:
                width = int(width_tok)
            except ValueError:
                raise MalformedHeader(f"bad $var width {width_tok!r}") from None
            if not scope_stack:
                raise MalformedHeader(f"$var {name!r} outside any scope")
            path = tuple(s.name for s in scope_stack)
            if (path, name) in seen_names:
                raise DuplicateFullName(f"signal {'.'.join(path + (name,))!r} declared twice")
            seen_names.add((path, name))
            decl = SignalDecl(
                id_code=id_code,
                name=name,
                width=width,
                kind=_KIND_MAP.get(kind_raw, "other"),
                scope_path=path,
                kind_raw=kind_raw,
            )
            scope_stack[-1].items.append(decl)
        elif tok == "$enddefinitions":
            if next_token() != "$end":
                raise MalformedHeader("unterminated $enddefinitions")
            if pos < len(tokens):
                # Change records on the $enddefinitions line would be lost to
                # a line-based reader; reject rather than silently drop them.
                raise MalformedHeader("content after $enddefinitions $end on the same line")
            break
        else:
            raise MalformedHeader(f"unexpected token {tok!r} in header")

    if scope_stack:
        raise MalformedHeader(f"unclosed scope {scope_stack[-1].name!r}")
    return tree


def _text_blocks(read: Callable[[int], Union[str, bytes]]) -> Iterator[str]:
    """Decoded text read in blocks of ``_BLOCK_CHARS``, each cut after its
    last whitespace: a token cut at a block edge is carried over whole to
    the next block."""
    carry = ""
    while True:
        block = read(_BLOCK_CHARS)
        if not block:
            break
        if isinstance(block, bytes):
            block = block.decode("latin-1")
        text = carry + block if carry else block
        if text[-1].isspace():
            carry = ""
            yield text
        else:
            # rsplit and split share one definition of whitespace
            *head, carry = text.rsplit(None, 1)
            if head:
                yield head[0]
    if carry:
        yield carry


def stream_changes(
    stream: Iterable, id_filter: frozenset[str] | set[str] = frozenset()
) -> "ChangeStream":
    """The value changes of a VCD body in file order, as a :class:`ChangeStream`.

    The header must already have been consumed. ``stream`` is a file-like
    object (text or binary, read in blocks) or an iterable of lines, each
    split on its own. An empty ``id_filter`` keeps every change. A malformed
    record raises :class:`MalformedChange` and a backward timestamp raises
    :class:`TimeRegression`, each where it is found.
    """
    return ChangeStream(stream, id_filter)


class ChangeStream:
    """An iterator of the :class:`ValueChange` records of one VCD body.

    Iterating it runs the per-token loop over the body's text blocks. A
    columnar reader may instead take the body block by block through
    :meth:`blocks`, which runs the per-token loop only on the blocks its
    decoder declines. Either way the body is read once.
    """

    def __init__(self, stream: Iterable, id_filter: frozenset[str] | set[str] = frozenset()):
        self.id_filter = frozenset(id_filter)
        self.time = 0  # the last timestamp read
        self._pending: str | None = None  # vector/real value waiting for its id token
        self._in_comment = False
        read = getattr(stream, "read", None)
        self._in_blocks = read is not None  # or line by line
        self._texts = iter(stream) if read is None else _text_blocks(read)
        self._all: Iterator[ValueChange] | None = None

    def __iter__(self) -> Iterator[ValueChange]:
        # one generator for every pull, so that each goes on where the last stopped
        if self._all is None:
            self._all = self._changes(self._texts, whole_body=True)
        return self._all

    def __next__(self) -> ValueChange:
        return next(iter(self))

    def blocks(self, decode: Callable[[str, int], "tuple[object, int, int] | None"]) -> Iterator:
        """Per text block of the body, in order, ``decode(text, time)``'s
        result, or the block's :class:`ValueChange` iterator.

        ``decode`` gets each block that starts at a record boundary, with the
        time of the last timestamp before it. It returns ``(result, time,
        used)``: the time of the block's last timestamp, and how many of the
        block's characters it read; the rest is read with the next block.
        It returns None to leave the block to the per-token loop, which
        raises any error in it. Each iterator must be exhausted before the
        next block is asked for. A body given line by line, or one already
        pulled from, comes as one iterator of what is left of it.
        """
        if self._all is not None or not self._in_blocks:
            yield iter(self)
            return
        rest = ""
        for text in self._texts:
            if rest:  # a whole token; the text before it may have lost its last blank
                text, rest = f"{rest} {text}", ""
            decoded = None
            if self._pending is None and not self._in_comment:
                decoded = decode(text, self.time)
            if decoded is None:
                yield self._changes((text,))
            else:
                result, self.time, used = decoded
                rest = text[used:]
                yield result
        if rest:
            yield self._changes((rest,))
        self._finish()

    def _changes(self, texts: Iterable, whole_body: bool = False) -> Iterator[ValueChange]:
        """The changes of ``texts``, read on from where the last text left
        off; when they are the whole body, checked for a value left open
        at its end."""
        keep_all = not self.id_filter
        id_filter = self.id_filter
        make = tuple.__new__  # ValueChange(...) without the keyword-argument wrapper
        scalar_chars = _SCALAR_CHARS
        drop_vector_chars = _DROP_VECTOR_CHARS
        keywords = _BODY_KEYWORDS

        current_time = self.time
        pending_value = self._pending
        in_comment = self._in_comment
        for raw in texts:
            if isinstance(raw, bytes):
                raw = raw.decode("latin-1")
            for tok in raw.split():
                if in_comment:
                    if tok == "$end":
                        in_comment = False
                    continue
                if pending_value is not None:
                    value, pending_value = pending_value, None
                    if tok in keywords:
                        raise MalformedChange(f"vector value without identifier before {tok!r}")
                    if keep_all or tok in id_filter:
                        yield make(ValueChange, (current_time, tok, value))
                    continue
                c0 = tok[0]
                if c0 == "b" or c0 == "B":
                    bits = tok[1:].lower()
                    if not bits or bits.translate(drop_vector_chars):
                        raise MalformedChange(f"bad vector value {tok!r}")
                    pending_value = bits
                elif c0 in scalar_chars:
                    ident = tok[1:]
                    if not ident:
                        raise MalformedChange(f"scalar change {tok!r} missing identifier")
                    if keep_all or ident in id_filter:
                        yield make(ValueChange, (current_time, ident, c0.lower()))
                elif c0 == "#":
                    try:
                        t = int(tok[1:])
                    except ValueError:
                        raise MalformedChange(f"bad timestamp {tok!r}") from None
                    if t < 0 or t > MAX_TICK:
                        raise MalformedChange(f"timestamp {tok!r} outside 64-bit tick range")
                    if t < current_time:
                        raise TimeRegression(f"timestamp went backwards: {current_time} -> {t}")
                    current_time = t
                elif c0 == "r" or c0 == "R":
                    num = tok[1:]
                    try:
                        float(num)
                    except ValueError:
                        raise MalformedChange(f"bad real value {tok!r}") from None
                    pending_value = "r" + num
                elif tok == "$comment":
                    in_comment = True
                elif tok not in keywords:
                    raise MalformedChange(f"unrecognized change record {tok!r}")
                # $dumpvars / $dumpall / $dumpon / $dumpoff / $end pass through;
                # the value records inside them are ordinary changes.
        self.time, self._pending, self._in_comment = current_time, pending_value, in_comment
        if whole_body:
            self._finish()

    def _finish(self) -> None:
        if self._pending is not None:
            raise MalformedChange("vector value at end of file missing identifier")


def _validate_value(value: str, width: int) -> str | None:
    if value.startswith("r"):
        try:
            float(value[1:])
        except ValueError:
            return f"bad real value {value!r}"
        return None
    if len(value) == 1 and width == 1:
        return None if value in "01xz" else f"bad scalar value {value!r}"
    if not value or value.translate(_DROP_VECTOR_CHARS):
        return f"bad vector value {value!r}"
    if len(value) > width:
        return f"vector value {value!r} longer than declared width {width}"
    return None


def value_check() -> Callable[[str, int], str | None]:
    """The check :func:`change_line` runs on each value: the problem with
    ``value`` at ``width`` bits, or None. A caller that keeps lines that
    change_line made may hand them out only while this stays the same."""
    return _validate_value


def change_line(value: str, id_code: str, width: int) -> str:
    """The body line that sets the signal ``id_code`` of ``width`` bits to
    ``value``; raises :class:`MalformedChange` for a value that the parser
    would reject."""
    problem = _validate_value(value, width)
    if problem:
        raise MalformedChange(problem)
    if value.startswith("r"):
        return f"{value} {id_code}\n"
    if len(value) == 1 and width == 1:
        return f"{value}{id_code}\n"
    return f"b{value} {id_code}\n"


def header_text(tree: ScopeTree) -> str:
    """The declaration section of ``tree``, ``$timescale`` through
    ``$enddefinitions $end``, one directive per line."""
    lines = [f"$timescale {tree.timescale} $end\n"]

    def add_scope(scope: Scope):
        lines.append(f"$scope {scope.kind} {scope.name} $end\n")
        for item in scope.items:
            if isinstance(item, SignalDecl):
                lines.append(f"$var {item.kind_raw} {item.width} {item.id_code} {item.name} $end\n")
            else:
                add_scope(item)
        lines.append("$upscope $end\n")

    for root in tree.roots:
        add_scope(root)
    lines.append("$enddefinitions $end\n")
    return "".join(lines)


def write_vcd(tree: ScopeTree, changes: Iterable[ValueChange]) -> bytes:
    """The bytes of a canonically formatted VCD file.

    Every change's id must be declared in ``tree`` and times must be
    non-decreasing; :func:`parse_header` + :func:`stream_changes` on the
    output recover an equivalent tree and change list.
    """
    parts = [header_text(tree)]

    widths = tree.id_widths()
    last_time: int | None = None
    for change in changes:
        if change.id_code not in widths:
            raise UndeclaredId(change.id_code)
        if change.time < 0 or change.time > MAX_TICK:
            raise TimeRegression(f"time {change.time} outside 64-bit tick range")
        if last_time is not None and change.time < last_time:
            raise TimeRegression(f"time went backwards: {last_time} -> {change.time}")
        line = change_line(change.value, change.id_code, widths[change.id_code])
        if change.time != last_time:
            parts.append(f"#{change.time}\n")
            last_time = change.time
        parts.append(line)
    return "".join(parts).encode("latin-1")
