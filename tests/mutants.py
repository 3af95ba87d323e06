"""Violating/fixed model pairs, one per diagnostic code, and mutant code.

Each entry of ``MUTATION_PAIRS`` maps a code to (violating DSL, fixed DSL).
The violating model must trigger exactly that code; the fixed model must
check completely clean. The fixes follow the documented repairs: split the
bidirectional port, type the second overlapping link, mark the shared passive
part protected, type the part-originating link.

:func:`dropped_tests` makes mutant copies of a function, each with one test
of one ``if`` left out, and :func:`dropped_operands` the same of one condition.
"""

from __future__ import annotations

import ast
import copy
import inspect
import sys
import textwrap
from pathlib import Path

_DELEGATION = (Path(__file__).parent / "fixtures" / "delegation.csm").read_text(encoding="utf-8")


def _delegation_with(extra_members: str = "", extra_top: str = "") -> str:
    text = _DELEGATION
    if extra_members:
        marker = "  connector d , self.rA_K via itsK;\n"
        text = text.replace(marker, marker + extra_members)
    return text + extra_top


W000_VIOLATING = """
interface I { op op1; }
interface J { op op2; }
class A active {
  uses J;
  port port_0: I;
}
"""

W000_FIXED = """
interface I { op op1; }
interface J { op op2; }
class A active {
  uses J;
  port port_0_in: I;
  port port_0_out: J reversed;
}
"""

W001_VIOLATING = _delegation_with("  connector self.pIJL , e.rK;\n")

W002_VIOLATING = _delegation_with(
    "  part f: F;\n  connector e.rK , f.rf;\n",
    "\nclass F active {\n  port rf: K reversed;\n}\n",
)

W003_VIOLATING = _DELEGATION.replace("assoc itsK ( D , K nav );", "assoc itsK ( D , K );")

W004_VIOLATING = """
interface Ia { op a; }
interface Ib { op b; }
interface Wide : Ia { op w; }
interface GroupAB group : Ia, Ib {}
class RecvA active {
  realizes Ia;
  port pa: Ia;
}
class RecvB active {
  realizes Ib;
}
class Outer active {
  port pout: GroupAB;
  part ra: RecvA;
  part rb: RecvB;
  connector self.pout , ra.pa via wchan;
  connector self.pout , rb;
}
assoc wchan ( Ia , Wide nav );
"""

W004_FIXED = W004_VIOLATING.replace("assoc wchan ( Ia , Wide nav );",
                                    "assoc wchan ( Ia , Ia nav );")

W005_VIOLATING = """
class P1 active {}
class P2 active {}
class Comp active {
  part a: P1;
  part b: P2;
  connector a , b;
}
"""

W005_FIXED = W005_VIOLATING.replace("connector a , b;", "connector a , b via chan;") + \
    "assoc chan ( P1 , P2 nav );\n"

W006_VIOLATING = """
interface X1 { op a; }
interface X2 { op b; }
class Src active {
  port r: X1 reversed;
}
class Good active {
  realizes X1;
  port p1: X1;
}
class Bad active {
  realizes X2;
  port p2: X2;
}
class Comp active {
  part s: Src;
  part g: Good;
  part b: Bad;
  connector s.r , g.p1;
  connector s.r , b.p2;
}
"""

W006_FIXED = W006_VIOLATING.replace("  connector s.r , b.p2;\n", "")

W007_VIOLATING = _DELEGATION.replace("connector e.rK , self.bak_rA_K via deleg_backup;",
                                     "connector e.rK , self.bak_rA_K;")

W008_VIOLATING = _DELEGATION.replace("  connector self.pIJL , e.pJL;\n", "")

W009_VIOLATING = """
class Inner active {}
class Outer {
  part i: Inner;
}
"""

W009_FIXED = W009_VIOLATING.replace("class Inner active {}", "class Inner {}")

W010_VIOLATING = """
class BWorker active {}
class CWorker active {}
class DShared {}
class A active {
  part b: BWorker;
  part c: CWorker;
  part d: DShared;
}
"""

W010_FIXED = W010_VIOLATING.replace("class DShared {}", "class DShared protected {}")

W011_VIOLATING = """
class Watcher observer {}
class Doer active {}
class Monitor observer {
  part w: Watcher;
  part a: Doer;
}
"""

W011_FIXED = W011_VIOLATING.replace("part a: Doer;", "part a: Watcher;")

MUTATION_PAIRS: dict[str, tuple[str, str]] = {
    "W000": (W000_VIOLATING, W000_FIXED),
    "W001": (W001_VIOLATING, _DELEGATION),
    "W002": (W002_VIOLATING, _DELEGATION),
    "W003": (W003_VIOLATING, _DELEGATION),
    "W004": (W004_VIOLATING, W004_FIXED),
    "W005": (W005_VIOLATING, W005_FIXED),
    "W006": (W006_VIOLATING, W006_FIXED),
    "W007": (W007_VIOLATING, _DELEGATION),
    "W008": (W008_VIOLATING, _DELEGATION),
    "W009": (W009_VIOLATING, W009_FIXED),
    "W010": (W010_VIOLATING, W010_FIXED),
    "W011": (W011_VIOLATING, W011_FIXED),
}


def dropped_operands(condition: ast.expr) -> list[tuple[str, ast.expr]]:
    """Mutant copies of ``condition``, each as ``(label, condition)``: one per
    operand of an ``and``/``or`` in it with that operand left out, or, for a
    condition without one, ``False``."""
    def operand_sites(tree) -> list[tuple[ast.BoolOp, int]]:
        return [(node, i) for node in ast.walk(tree) if isinstance(node, ast.BoolOp)
                for i in range(len(node.values))]

    mutants = []
    for k in range(len(operand_sites(condition))):
        tree = ast.Expression(copy.deepcopy(condition))
        boolop, i = operand_sites(tree)[k]
        label = ast.unparse(boolop.values[i])
        del boolop.values[i]
        if len(boolop.values) == 1:  # a one-operand BoolOp does not compile
            for parent in ast.walk(tree):
                for field, value in ast.iter_fields(parent):
                    if value is boolop:
                        setattr(parent, field, boolop.values[0])
                    elif isinstance(value, list) and boolop in value:
                        value[value.index(boolop)] = boolop.values[0]
        mutants.append((label, tree.body))
    return mutants or [(ast.unparse(condition), ast.Constant(False))]


def dropped_tests(function) -> list[tuple[str, object]]:
    """Mutant copies of ``function``, each as ``(label, mutant)``: for every
    ``if`` in it, one copy per :func:`dropped_operands` mutant of its
    condition. A mutant runs in a copy of the function's module namespace,
    with the values of its closure's free variables added, so what it calls
    is unchanged."""
    source = textwrap.dedent(inspect.getsource(function))

    def conditions(tree) -> list[ast.If]:
        return [node for node in ast.walk(tree) if isinstance(node, ast.If)]

    mutants = []
    for n, node in enumerate(conditions(ast.parse(source))):
        for label, condition in dropped_operands(node.test):
            tree = ast.parse(source)
            conditions(tree)[n].test = condition
            namespace = dict(vars(sys.modules[function.__module__]))
            namespace.update(zip(function.__code__.co_freevars,
                                 (cell.cell_contents for cell in function.__closure__ or ())))
            exec(compile(ast.fix_missing_locations(tree), f"<mutant of {function.__name__}>",
                         "exec"), namespace)
            mutants.append((f"{function.__name__} without {label}", namespace[function.__name__]))
    return mutants
