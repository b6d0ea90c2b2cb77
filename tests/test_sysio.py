import importlib
import inspect
import json
import os
import pkgutil
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import wavetriage
from wavetriage import DataError, sysio
from wavetriage.mutate import NoEligibleSite
from wavetriage.rtl import ParseError
from wavetriage.sysio import naming, replace_file, run_template

PY = shlex.quote(sys.executable)
SRC = Path(sysio.__file__).parent


def test_placeholders_fill_each_argument_after_the_split():
    code = "import sys; sys.stderr.write(repr(sys.argv[1:])); sys.exit(3)"
    rc, err = run_template(f'{PY} -c "{code}" {{a}} x{{b}}y {{a}}', 30, a="two words", b=" 'q' $HOME")
    assert rc == 3
    assert err == repr(["two words", "x 'q' $HOMEy", "two words"]).encode()


def test_timeout_returns_none_and_stderr_so_far():
    code = "import sys, time; sys.stderr.write('started'); sys.stderr.flush(); time.sleep(60)"
    assert run_template(f'{PY} -c "{code}"', 3) == (None, b"started")
    assert run_template(PY + ' -c "import time; time.sleep(60)"', 0.5) == (None, b"")


def test_missing_program_raises_with_its_name(tmp_path):
    missing = str(tmp_path / "no-such-program")
    with pytest.raises(FileNotFoundError) as info:
        run_template("{prog} --flag", 30, prog=missing)
    assert info.value.filename == missing


@pytest.mark.parametrize("template", ["", "  ", "{prog} --flag", "'' --flag"])
def test_template_that_names_no_program_is_a_value_error(template):
    with pytest.raises(ValueError, match="names no program"):
        run_template(template, 30, prog="")


@pytest.mark.parametrize("old_mode", [None, 0o640], ids=["new-file", "existing-file"])
def test_replace_file_gets_plain_open_mode(tmp_path, old_mode):
    if old_mode is not None:
        for name in ("atomic", "plain"):
            (tmp_path / name).write_bytes(b"old")
            (tmp_path / name).chmod(old_mode)
    umask = os.umask(0o002)
    try:
        replace_file(tmp_path / "atomic", b"data")
        with open(tmp_path / "plain", "wb") as handle:
            handle.write(b"data")
    finally:
        os.umask(umask)
    assert (tmp_path / "atomic").read_bytes() == b"data"
    modes = {(tmp_path / name).stat().st_mode & 0o777 for name in ("atomic", "plain")}
    assert modes == {old_mode or 0o664}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic", "plain"]


@pytest.mark.parametrize("old", [None, b"old"], ids=["new-file", "existing-file"])
def test_replace_file_failing_half_way_leaves_old_file_or_none(tmp_path, fail_replace_midway, old):
    path = tmp_path / "f.bin"
    if old is not None:
        path.write_bytes(old)
    fail_replace_midway()
    with pytest.raises(OSError, match="No space"):
        replace_file(path, b"new data")
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["f.bin"])
    if old is not None:
        assert path.read_bytes() == old


def test_replace_file_onto_a_directory_removes_the_temporary(tmp_path):
    (tmp_path / "d").mkdir()
    with pytest.raises(IsADirectoryError):
        replace_file(tmp_path / "d", b"data")
    assert [p.name for p in tmp_path.iterdir()] == ["d"]


def test_replace_file_writes_through_a_symlink_and_into_a_fifo(tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"old")
    link.symlink_to(target)
    replace_file(link, b"new")
    assert link.is_symlink() and target.read_bytes() == b"new"

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        replace_file(fifo, b"streamed")
        assert os.read(reader, 100) == b"streamed"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link", "target"]


def test_sysio_is_the_one_owner():
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        found = [word for word in ("subprocess.run", "os.replace", "tempfile") if word in text]
        assert path.name == "sysio.py" or not found, (path.name, found)
    assert "vcd._" not in (SRC / "fixtures.py").read_text(encoding="utf-8")


def test_package_attribute_imports_sysio_in_a_fresh_interpreter():
    code = "import wavetriage; print(wavetriage.sysio.replace_file.__name__)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "replace_file\n"


def test_every_error_class_of_the_package_is_a_data_error():
    """``cli`` exits 2 on a DataError, so no module's error needs listing there."""
    classes = [
        obj
        for info in pkgutil.iter_modules(wavetriage.__path__)
        for obj in vars(importlib.import_module(f"wavetriage.{info.name}")).values()
        if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == f"wavetriage.{info.name}"
    ]
    outside = [f"{cls.__module__}.{cls.__qualname__}" for cls in classes if not issubclass(cls, DataError)]
    assert len(classes) > 30 and outside == ["wavetriage.cli._UsageError"]


def _raise(error):
    raise error


@pytest.mark.parametrize(
    "error, attributes",
    [
        (ParseError("a.sv", 3, "';'"), {"file": "a.sv", "line": 3, "expected": "';'"}),
        (NoEligibleSite("logic_bug", "m"), {"bug_type": "logic_bug", "module": "m"}),
    ],
)
def test_naming_puts_the_input_in_front_of_the_error_itself(error, attributes):
    message = str(error)
    with pytest.raises(type(error)) as info, naming("in.json"):
        _raise(error)
    assert info.value is error
    assert str(error) == f"in.json: {message}"
    assert {key: getattr(error, key) for key in attributes} == attributes
    assert info.traceback[-1].name == "_raise"


def test_naming_turns_any_other_value_error_into_a_plain_one():
    with pytest.raises(ValueError) as info, naming("in.json"):
        json.loads("{")
    assert type(info.value) is ValueError
    assert str(info.value) == "in.json: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
