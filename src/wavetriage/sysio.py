"""Running a command template, replacing a file atomically, from bytes or
from text rendered through a handle, reading a JSON document that came
from outside into the dataclass that declares its shape, and naming the
input a data error came from: the contracts with the outside world, each
with one owner here. Every JSON input goes through :func:`json_fields`,
and :data:`JSON_TYPES` is its one type table. Standard library only."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shlex
import shutil
import stat
import subprocess
import types
import typing
from pathlib import Path

from . import DataError


def run_template(template: str, timeout: float, **values) -> tuple[int | None, bytes]:
    """``(returncode, stderr)`` of a command template, split like a shell
    command line and then filled part by part with ``str.format(**values)``.

    ``returncode`` is None after ``timeout`` seconds, and ``stderr`` then
    holds what the command wrote so far. A missing program raises
    ``FileNotFoundError`` with the program as its ``filename``, and a
    template that names no program raises ``ValueError``.
    """
    args = [part.format(**values) for part in shlex.split(template)]
    if not args or not args[0]:
        raise ValueError(f"command template {template!r} names no program")
    try:
        proc = subprocess.run(args, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return None, exc.stderr or b""
    return proc.returncode, proc.stderr


def replace_file(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through a temporary file in the same
    directory and ``os.replace``, so a reader never sees a partial write; a
    failure removes the temporary file. The result has the mode a plain
    ``open`` gives: the old file's, or ``0o666`` less the umask.

    As with a plain ``open``, a symlink is written through to its target,
    and a FIFO, device or pipe (``/dev/stdout``, say) takes the bytes as a
    stream: only a regular file or a new path is replaced. What ``path``
    is comes from ``os.stat``, which follows ``/dev/stdout`` to the pipe
    behind it; the path is resolved only when a file is to be replaced."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = stat.S_IFREG  # a new path (or a dangling symlink's target)
    if not stat.S_ISREG(mode) and not stat.S_ISDIR(mode):
        with open(path, "wb") as handle:
            handle.write(data)
        return
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as handle:
            handle.write(data)
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def replace_text(path, text: str) -> None:
    """:func:`replace_file` with ``text`` in UTF-8."""
    replace_file(path, text.encode("utf-8"))


@contextlib.contextmanager
def naming(where: str):
    """Put ``where: `` in front of the message of a data error raised
    inside: a :class:`~wavetriage.DataError` keeps its object, class,
    attributes and traceback, and any other ValueError (json's, a codec's)
    becomes a plain ValueError."""
    try:
        yield
    except DataError as exc:
        exc.args = (f"{where}: {exc}",)
        raise
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def rendered(write, *args) -> str:
    """The text that ``write(*args, handle)`` writes to a text handle."""
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


# an annotation's name (``X | None`` is read as ``X``: a null stands for the
# default) -> the JSON type the value must have; a container not named here
# is read item by item
JSON_TYPES = {
    "str": ("a string", lambda value: isinstance(value, str)),
    "int": ("an integer", lambda value: type(value) is int),
    "float": ("a number", lambda value: type(value) in (int, float)),
    "bool": ("true or false", lambda value: type(value) is bool),
    "dict": ("an object", lambda value: isinstance(value, dict)),
    "list": ("a list", lambda value: isinstance(value, list)),
    "list[str]": ("a list of strings", _strings),
    "tuple[str, ...]": ("a list of strings", _strings),
}


def json_fields(cls, doc, where: str, path: str = "", what: str | None = None):
    """Dataclass ``cls`` read from the JSON object ``doc``, the document
    ``where`` names or its value at key ``path``, by the fields'
    annotations: a field with no default is required, a null stands for
    the default, and nested dataclasses, ``list[...]``, ``tuple[...]`` and
    ``dict[str, ...]`` are read item by item. ``cls`` may also be such an
    annotation. A bad value raises ValueError: ``<what> is a JSON object``,
    ``<where> key '<path>' must be <expected>, not <json>`` or ``<where>
    has no key '<key>'``, where a nested dataclass at key ``k`` is the ``k
    object``."""
    if what is not None and not JSON_TYPES["dict"][1](doc):
        raise ValueError(f"{what} is a JSON object")
    return _read(cls, doc, where, path, f"{where} key {path!r}" if path else where)


def _read(hint, value, where: str, path: str, noun: str = ""):
    """``value`` at key ``path`` read as ``hint``; ``noun`` is a dataclass object's missing-key name."""
    if isinstance(hint, types.UnionType):  # ``X | None``: the caller took a null for the default
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    name = repr(hint) if args else "dict" if dataclasses.is_dataclass(hint) else hint.__name__
    expected, fits = JSON_TYPES.get(name) or JSON_TYPES["dict" if origin is dict else "list"]
    fixed = origin is tuple and Ellipsis not in args
    if not fits(value) or fixed and len(value) != len(args):
        text = json.dumps(value)
        shown = text if len(text) <= 80 else text[:76] + " ..."
        expected = f"a list of {len(args)} values" if fixed else expected
        raise ValueError(f"{f'{where} key {path!r}' if path else where} must be {expected}, not {shown}")
    if dataclasses.is_dataclass(hint):
        hints, values = typing.get_type_hints(hint), {}
        for field in dataclasses.fields(hint):
            if value.get(field.name) is not None:
                key, item = _key(path, field.name), value[field.name]
                values[field.name] = _read(hints[field.name], item, where, key, f"{field.name} object")
            elif field.default is field.default_factory is dataclasses.MISSING:
                raise ValueError(f"{noun} has no key {field.name!r}")
        return hint(**values)
    if name in JSON_TYPES:
        return tuple(value) if origin is tuple else value
    if origin is dict:
        return {key: _read(args[1], item, where, _key(path, key)) for key, item in value.items()}
    items = [_read(args[i if fixed else 0], item, where, f"{path}[{i}]") for i, item in enumerate(value)]
    return tuple(items) if origin is tuple else items


def _key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key
