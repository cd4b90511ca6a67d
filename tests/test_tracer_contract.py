"""The benchmark's tracer wraps infcone functions by name; each must exist.

`perfbench/tracer.py` rebinds every `(module, class, attribute)` in its
`SPAN_ENTRIES` and `DSL_ENTRIES` lists.  A renamed or deleted function
would make the benchmark raise `AttributeError` when it installs the
tracer, so this checks the names here instead.  The tracer module is
loaded from its file and nothing in it is changed.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracer.py"


def test_every_traced_entry_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, cls, attr, *_ in tracer.SPAN_ENTRIES + tracer.DSL_ENTRIES:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(".".join(filter(None, (module, cls, attr))))
    assert missing == []
