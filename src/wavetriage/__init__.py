"""Failure triage for RTL simulations: mine failing VCD waveforms into
compact statistical feature tables and classify each failure to the module
most likely to contain the bug.

Submodules are imported lazily so that lightweight consumers (the VCD
parser, the RTL scanner) do not pull in numpy.
"""

__version__ = "0.1.0"


class DataError(Exception):
    """An input the tool cannot use: the base of every module's error class,
    exit 2 on the command line. ``sysio.naming`` names the input in front."""


_SUBMODULES = (
    "vcd",
    "rtl",
    "selection",
    "extract",
    "ranking",
    "trees",
    "models",
    "metrics",
    "mutate",
    "orchestrate",
    "sysio",
    "fixtures",
    "cli",
)


def __getattr__(name: str):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_SUBMODULES) + ["DataError", "__version__"]
