"""perfbench/spans.py patches module and class attributes by name; a rename
in the package would make every traced benchmark call fail with KeyError."""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_boundary_is_bound():
    spans = _load_spans()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
               for name, (owners, attr, _) in spans._boundaries().items()
               for owner in owners if attr not in owner.__dict__]
    assert not missing


def test_instrument_restores_the_originals():
    spans = _load_spans()
    boundaries = spans._boundaries()
    originals = {(owner, attr): owner.__dict__[attr]
                 for owners, attr, _ in boundaries.values() for owner in owners}
    with spans.instrument(spans.Tracer()):
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original
