"""Every function the benchmark's tracer wraps still exists in `fognet`.

`perfbench/tracer.py` names its targets by module and attribute path, so
a rename or deletion under `src/` breaks `perfbench/run.py --trace 1`.
`perfbench/tests` is not part of this suite, so this test reads the
`TARGETS` table from the tracer's source, without running it, and
resolves each entry the way `Tracer.install` does.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves():
    targets = _targets()
    assert targets
    for name, module_name, attr in targets:
        assert name == f"{module_name.removeprefix('fognet.')}.{attr}", name
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(getattr(module, cls_name).__dict__.get(meth)), name
        else:
            assert callable(getattr(module, attr, None)), name
