"""The per-event functions read no enum member through its class.

A read such as ``ServedFrom.CACHE`` goes through the enum metaclass's
``__getattr__``, several times the cost of a module global on Python 3.10
and 3.11 (see the constants in ``sim.py``), and an opcode count does not
show it.  The functions that run once or more per simulated event read
module constants set at import instead; this test keeps it so.
"""

import ast
import enum
from pathlib import Path

import pytest

from semcache import cache, sim

PER_EVENT = [
    (
        sim,
        (
            "_claim",
            "_EventLoop.at",
            "_EventLoop.run",
            "_Simulation._at_cache",
            "_Simulation._fetch",
            "_Simulation._at_sgw",
            "_Simulation._round_trip",
            "_Simulation._fetched",
            "_Simulation._deliver",
            "_Simulation._launch_prefetches",
        ),
    ),
    (cache, ("Cache.lookup", "Cache.insert", "Cache.credit_prefetch_hit", "Cache.__contains__")),
]


def _functions(tree: ast.Module):
    """The module's functions and its classes' methods, by qualified name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _is_enum(obj) -> bool:
    return isinstance(obj, type) and issubclass(obj, enum.Enum)


def enum_reads(source: str, namespace: dict, names) -> list[str]:
    """Each read of an attribute of a global of ``namespace`` that is an
    enum class, in the functions ``names`` of ``source``, as
    ``"function: expression"``.  A name that is not a function of
    ``source`` raises ``KeyError``."""
    functions = dict(_functions(ast.parse(source)))
    return [
        f"{name}: {ast.unparse(node)}"
        for name in names
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and _is_enum(namespace.get(node.value.id))
    ]


@pytest.mark.parametrize("module, names", PER_EVENT, ids=["sim", "cache"])
def test_no_enum_member_read_through_its_class(module, names):
    source = Path(module.__file__).read_text(encoding="utf-8")
    assert enum_reads(source, vars(module), names) == []


def test_the_check_can_fail():
    source = Path(sim.__file__).read_text(encoding="utf-8")
    hoisted = "self._deliver(i, t, self.sizes[key], _CACHE)"
    assert source.count(hoisted) == 1
    source = source.replace(hoisted, "self._deliver(i, t, self.sizes[key], ServedFrom.CACHE)")
    names = dict(PER_EVENT)[sim]
    assert enum_reads(source, vars(sim), names) == ["_Simulation._at_cache: ServedFrom.CACHE"]
