"""Guards for the scripts that drive the package from outside."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_name_resolves():
    # the traced benchmark run wraps these names by attribute; a renamed or
    # deleted function would only fail there, long after the change
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.WRAPPED.items()
        for name in names
        if not callable(getattr(spans.LAYERS[layer], name, None))
    ]
    assert missing == []
