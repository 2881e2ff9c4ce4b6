"""The benchmark's tracer wraps package functions by dotted name; a rename in
the package must fail here rather than only in a traced benchmark run."""

import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound_names(originals):
    """(module, attribute) -> object for every tempkg module attribute that
    holds one of ``originals``, so `from ... import` copies are seen too."""
    ids = {id(fn) for fn in originals}
    return {(key, attr): obj for key, m in list(sys.modules.items())
            if key == "tempkg" or key.startswith("tempkg.")
            for attr, obj in vars(m).items() if id(obj) in ids}


def test_every_traced_name_resolves_and_is_restored():
    tracing = load_tracing()
    names = list(dict.fromkeys(tracing.SPANS + tuple(tracing.COUNTERS)))

    def current():
        out = {}
        for dotted in names:
            owner, attr, _ = tracing._resolve(dotted)
            out[dotted] = getattr(owner, attr)
        return out

    before = current()
    bound_before = bound_names(before.values())
    with tracing.Tracer().installed():
        during = current()
        for dotted in names:
            assert during[dotted] is not before[dotted], dotted
            assert during[dotted].__wrapped__ is before[dotted], dotted
    after = current()
    for dotted in names:
        assert after[dotted] is before[dotted], dotted
    assert bound_names(before.values()) == bound_before
