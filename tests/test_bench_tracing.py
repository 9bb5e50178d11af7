"""The benchmark tracer binds library functions by name; removing or
renaming one breaks every traced benchmark run, so check it here."""

import importlib
import importlib.util
from pathlib import Path

import tvpriv
from tvpriv import suites

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_traced_name_and_restore_undoes_it():
    tracing = load_tracing()
    mods = {layer: importlib.import_module(f"tvpriv.{layer}")
            for layer in tracing.TRACED}
    before = {(layer, name): getattr(mods[layer], name)
              for layer, names in tracing.TRACED.items() for name in names}
    exported = dict(vars(tvpriv))
    suite_table = dict(suites.SUITES)
    restore = tracing.install(tracing.Tracer())
    try:
        for (layer, name), fn in before.items():
            assert getattr(mods[layer], name) is not fn, f"{layer}.{name}"
    finally:
        restore()
    for (layer, name), fn in before.items():
        assert getattr(mods[layer], name) is fn, f"{layer}.{name}"
    assert dict(vars(tvpriv)) == exported
    assert suites.SUITES == suite_table
