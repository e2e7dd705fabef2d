"""The benchmark's span recorder wraps library functions by name; every
name it lists must still exist, so that renaming or deleting one fails
here and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("modname, attr, span", _targets())
def test_target_resolves(modname, attr, span):
    module = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(module, cls_name).__dict__[meth])
    else:
        assert callable(getattr(module, attr))
