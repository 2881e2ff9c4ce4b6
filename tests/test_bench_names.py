"""The benchmark's tracer wraps package functions by dotted name; a rename in
the package must fail here rather than only in a traced benchmark run."""

import importlib.util
import pathlib
import sys

import numpy as np

from tempkg import autodiff as ad

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


def test_scatter_row_counter_counts_the_rows_passed():
    """The benchmark counts kernel rows as the length of the kernel's second
    argument; one scatter forward and one gather backward must add exactly
    the rows each passed."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tape = ad.Tape()
    src, table = tape.leaf(np.ones((5, 2))), tape.leaf(np.ones((4, 2)))
    with tracer.installed():
        tracer.begin("pass")
        counts = tracer.segments[-1][1]
        scattered = ad.scatter_add_rows(src, [0, 2, 2, 1, 0], num_rows=3)
        assert counts["kernels.scatter_add_rows.rows"] == 5
        gathered = ad.gather_rows(table, [3, 0, 3])
        assert counts["kernels.scatter_add_rows.rows"] == 5
        tape.backward(ad.add(ad.reduce_sum(scattered), ad.reduce_sum(gathered)))
        assert counts["kernels.scatter_add_rows.rows"] == 5 + 3
    calls = [tracer.names[span[0]] for span in tracer.spans]
    assert calls.count("kernels.scatter_add_rows") == 2
