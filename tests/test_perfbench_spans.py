"""perfbench/spans.py patches module and class attributes by name; a rename
in the package would make every traced benchmark call fail with KeyError."""

import importlib.util
import json
from pathlib import Path

from switchgame import cli

ROOT = Path(__file__).resolve().parent.parent
SPANS_PATH = ROOT / "perfbench" / "spans.py"


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


def test_interp_span_sees_the_feedback_rule(tmp_path):
    # each saddle strategy interpolates its field once per step, and the
    # PDE value reads both fields once
    steps = 20
    doc = json.loads((ROOT / "configs" / "g1_game_2x2.json").read_text())
    doc["grid"] = {"nt": 21, "nx": 17}
    doc["simulation"].update(paths=200, steps=steps)
    doc["output"] = str(tmp_path / "out")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert cli.main(["game", str(config)]) in (0, 1)
    assert tracer.calls("game.interp") == 2 * steps + 2
