"""README.md's "Library tour" runs as written and shows what its comments
state."""

import ast
from fractions import Fraction as F
from pathlib import Path

from plzig import compose, iterate, laps

README = Path(__file__).resolve().parents[1] / "README.md"


def run_tour():
    """Run the tour's statements in order, as an interactive session would:
    the values of its bare expressions, and every certificate bound to
    ``cert``, in order, with the final namespace."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, shown, certs = {}, [], []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            shown.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
            continue
        exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
        if any(getattr(t, "id", None) == "cert" for t in getattr(node, "targets", ())):
            certs.append(namespace["cert"])
    return shown, certs, namespace


def test_library_tour():
    shown, certs, ns = run_tour()
    f, f2, pair = ns["f"], ns["f2"], ns["pair"]
    # five-lap map with interior fixed point 1/2
    assert len(laps(f)) == 5 and f(F(1, 2)) == F(1, 2)
    # t∘s == f2 exactly
    assert f2 == iterate(f, 2) and compose(pair.t, pair.s) == f2
    # zigzag_set(f), the leo verdict, the Markov partition, the rebonded
    # verdict at 1/2, cert.passed, the window
    markov = [F(0), F(1, 3), F(4, 9), F(5, 9), F(2, 3), F(1)]
    assert shown == [((F(4, 9), F(5, 9)),), True, markov, False, True, (F(1, 3), F(2, 3))]
    # the Minc and the general certificate both pass
    assert [c.passed for c in certs] == [True, True]
    assert certs[0].stabilization is None and certs[1].stabilization is not None
