"""The benchmark tracer's targets still name bound attributes.

``perfbench/tracer.py`` wraps each traced function at the place its caller
looks it up (``Tracer.install`` reads ``owner.__dict__[attr]``).  A traced
name that is deleted or moved breaks the traced benchmark run; this check
finds it without installing the tracer.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_where_install_looks_it_up():
    targets = load_tracer()._targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert missing == []
    # the optional targets (derivative builders and trace norms imported by
    # name) are found by hasattr; a changed count changes the traced spans
    assert len(targets) == 27
