"""Running a command template, replacing a file atomically, from bytes or
from text rendered through a handle, and reading a key of a JSON document
that came from outside, of the JSON type it must have: the contracts with
the outside world, each with one owner here. Standard library only."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import shutil
import stat
import subprocess
from pathlib import Path


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


def rendered(write, *args) -> str:
    """The text that ``write(*args, handle)`` writes to a text handle."""
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


def json_key(doc, key: str, where: str, error=ValueError):
    """``doc[key]``; ``error`` naming ``where`` and the key when ``doc`` is
    not a JSON object or has no such key."""
    if not isinstance(doc, dict) or key not in doc:
        raise error(f"{where} has no key {key!r}")
    return doc[key]


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


# a config value's type annotation (``X | None`` is checked as ``X``: a
# null stands for the default) -> the JSON type the value must have
JSON_TYPES = {
    "str": ("a string", lambda value: isinstance(value, str)),
    "int": ("an integer", lambda value: type(value) is int),
    "float": ("a number", lambda value: type(value) in (int, float)),
    "bool": ("true or false", lambda value: type(value) is bool),
    "dict": ("an object", lambda value: isinstance(value, dict)),
    "list[str]": ("a list of strings", _strings),
    "tuple[str, ...]": ("a list of strings", _strings),
}


def json_typed(value, annotation: str, name: str):
    """``value``; ValueError naming config key ``name`` when it is not of
    the JSON type of ``annotation``, a key of :data:`JSON_TYPES`."""
    expected, fits = JSON_TYPES[annotation.removesuffix(" | None")]
    if not fits(value):
        raise ValueError(f"config key {name!r} must be {expected}, not {json.dumps(value)}")
    return value


def json_setting(doc: dict, key: str, annotation: str, default, name: str | None = None):
    """``doc[key]`` checked by :func:`json_typed` as config key ``name``
    (``key`` by default), or ``default`` when it is missing or null."""
    value = doc.get(key)
    return default if value is None else json_typed(value, annotation, name or key)
