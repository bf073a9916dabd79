"""The README's numerical-policy table against the constants of the package.

Every module-level ``*_TOL`` constant (other than a ``DEFAULT_`` per-call
default) has a row; every row names a constant assigned in the module it
names, and a value written as a plain float is that constant's value.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROW = re.compile(r"\| `(\w+)\.(\w+)` \| ([^|]+) \|")


def policy_rows() -> dict:
    """{(module, name): value cell} of the table under "### Numerical policy"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Numerical policy", 1)[1].split("\n#", 1)[0]
    rows = [ROW.match(line) for line in section.splitlines()]
    return {(m.group(1), m.group(2)): m.group(3).strip() for m in rows if m}


def module_constants() -> set:
    """(module, name) of every module-level assignment in src/measure_balancer."""
    found = set()
    for path in (ROOT / "src" / "measure_balancer").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                found.update((path.stem, t.id) for t in node.targets if isinstance(t, ast.Name))
    return found


def test_every_tolerance_has_a_row():
    tolerances = {(mod, name) for mod, name in module_constants() if name.endswith("_TOL")}
    missing = {c for c in tolerances if not c[1].startswith("DEFAULT_")} - set(policy_rows())
    assert not missing, sorted(missing)


def test_every_row_names_a_constant_of_its_module_with_its_value():
    rows = policy_rows()
    assert len(rows) > 20
    assert not set(rows) - module_constants(), sorted(set(rows) - module_constants())
    for (mod, name), cell in rows.items():
        try:
            written = float(cell)
        except ValueError:  # such as 2⁻⁴⁰
            continue
        assert written == getattr(importlib.import_module(f"measure_balancer.{mod}"), name), (mod, name)
