"""The optional parameters of every public stabkit function, pinned.

For each public function of the stabkit modules, and each public method
(and hand-written ``__init__``) of their public classes, the parameters
that have a default are recorded in ``api_options.json`` with the repr of
that default; the test fails if an option is added, dropped or changes
its default.  Regenerate that file (only when the interface is meant to
change) with

    PYTHONPATH=src python tests/test_api_options.py
"""

import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import stabkit

TABLE = Path(__file__).resolve().parent / "api_options.json"


def _functions(module):
    """(qualified name, function) of the module's public functions and of
    the methods its public classes define in its source."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)  # static and class methods
                if attr.startswith("_") and attr != "__init__":
                    continue
                # dataclass-generated __init__s are records, not options
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    yield f"{name}.{attr}", fn


def option_table() -> dict:
    """'module.function' -> {parameter: repr(default)} for every public
    function with at least one optional parameter."""
    table = {}
    for info in pkgutil.iter_modules(stabkit.__path__):
        module = importlib.import_module(f"stabkit.{info.name}")
        for name, fn in _functions(module):
            options = {
                p.name: repr(p.default)
                for p in inspect.signature(fn).parameters.values()
                if p.default is not inspect.Parameter.empty
            }
            if options:
                table[f"{info.name}.{name}"] = options
    return table


def test_options_match_record():
    assert option_table() == json.loads(TABLE.read_text())


if __name__ == "__main__":
    TABLE.write_text(json.dumps(option_table(), indent=1, sort_keys=True) + "\n")
    print(f"wrote the options of {len(option_table())} functions to {TABLE}", file=sys.stderr)
