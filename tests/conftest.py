import io
import os

import pytest

from wavetriage import sysio


class _FailingHandle(io.BytesIO):
    """Stands in for the temporary file: keeps half the bytes, then fails
    like a full disk."""

    def write(self, data):
        super().write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


@pytest.fixture
def fail_replace_midway(monkeypatch):
    """A callable that makes every later ``sysio.replace_file`` fail half-way
    through writing its temporary file, until the test ends."""
    real_open = open

    def fake_open(file, mode="r", *args, **kwargs):
        if isinstance(file, int):
            os.close(file)
            return _FailingHandle()
        return real_open(file, mode, *args, **kwargs)

    return lambda: monkeypatch.setattr(sysio, "open", fake_open, raising=False)
