"""Every defaulted parameter of the library has a caller.

``FUZZ_CONFIG_CALLERS`` (``tests/test_ga_core.py``) holds ``FuzzConfig`` to
"a field nothing sets is deleted"; this census holds the whole library to
the same rule.  It parses ``src/repro`` and collects every defaulted
parameter of a public function, method or ``__init__`` (a public name, at
module level or in a public top-level class).  Each must be passed by some
call in ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``: by keyword,
by position, through ``functools.partial``, or through ``*``/``**``
unpacking (``*args`` reaches every positional parameter, ``**kwargs`` every
parameter).  A parameter that only a test or a figure benchmark passes has a
caller.

Calls are matched by name, not by type: ``x.f(...)`` is a call of every
``f``, ``C(...)`` of ``C.__init__`` (or of the nearest base class that
defines one), and ``super().__init__(...)`` / ``Base.__init__(self, ...)`` of
the base's.  A value that no call sets is a constant of the module whose
rule it is, not a parameter.  A parameter kept without a caller names its
standing decision in :data:`ALLOWED`.
"""

import ast
import functools
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "repro"
CALLERS = ("src", "tests", "benchmarks", "examples")

#: ``module::Callable(parameter)`` -> the standing decision that keeps it.
ALLOWED = {
    "campaign/scheduler.py::CampaignRunner.resume(backend)": (
        "CampaignRunner's seams are settable on purpose (ROADMAP, standing "
        "decisions): resume takes the backend that CampaignRunner(backend=) takes"
    ),
}

#: One call's positional arguments and keywords.
Call = Tuple[Sequence[ast.expr], Sequence[ast.keyword]]


@functools.lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _trees() -> Iterator[ast.Module]:
    for root in CALLERS:
        for path in sorted((ROOT / root).rglob("*.py")):
            yield _parse(path)


def _name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _callee(node: ast.Call) -> Tuple[Optional[str], Call]:
    """The name ``node`` calls and what it passes; ``partial(f, ...)`` calls
    ``f``."""
    name, args = _name(node.func), node.args
    if name == "partial" and args:
        name, args = _name(args[0]), args[1:]
    return name, (args, node.keywords)


def _classes() -> Dict[str, Tuple[List[str], bool]]:
    """Every class in the scanned trees: name -> (base names, defines
    ``__init__``).  A dataclass's ``__init__`` is generated, so it counts."""
    classes: Dict[str, Tuple[List[str], bool]] = {}
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [name for name in map(_name, node.bases) if name]
                has_init = any(
                    isinstance(item, ast.FunctionDef) and item.name == "__init__"
                    for item in node.body
                ) or any("dataclass" in ast.dump(d) for d in node.decorator_list)
                classes.setdefault(node.name, (bases, has_init))
    return classes


def _calls() -> Dict[str, List[Call]]:
    """Callee name -> every call of it in the scanned trees."""
    classes = _classes()

    def constructor(name: Optional[str]) -> Optional[str]:
        # A class without its own ``__init__`` is built by its base's.
        seen = set()
        while name in classes and not classes[name][1] and name not in seen:
            seen.add(name)
            name = next(iter(classes[name][0]), name)
        return name

    calls: Dict[str, List[Call]] = {}
    for tree in _trees():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in ast.walk(cls):
                if not (isinstance(node, ast.Call) and _name(node.func) == "__init__"):
                    continue
                target, args = node.func.value, node.args
                if isinstance(target, ast.Call) and _name(target.func) == "super":
                    bases = classes[cls.name][0]
                else:  # ``Base.__init__(self, ...)``
                    bases, args = [_name(target)], args[1:]
                for base in bases:
                    calls.setdefault(constructor(base), []).append((args, node.keywords))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name, call = _callee(node)
                if name is not None:
                    calls.setdefault(name, []).append(call)
                    if name in classes:
                        calls.setdefault(constructor(name), []).append(call)
    return calls


def _defaulted_parameters() -> Iterator[Tuple[str, str, str, Optional[int]]]:
    """(key, callee name, parameter, position or None if keyword-only) for
    every defaulted parameter of the library's public callables."""
    for path in sorted(LIBRARY.rglob("*.py")):
        module = path.relative_to(LIBRARY).as_posix()
        tree = _parse(path)
        owners = [(None, tree)] + [
            (node, node) for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        ]
        for cls, owner in owners:
            for fn in owner.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name.startswith("_") and fn.name != "__init__":
                    continue
                static = any(_name(d) == "staticmethod" for d in fn.decorator_list)
                skip = 1 if cls is not None and not static else 0
                positional = fn.args.posonlyargs + fn.args.args
                first = len(positional) - len(fn.args.defaults)
                params = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
                params += [
                    (arg.arg, None)
                    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                    if default is not None
                ]
                qualname = fn.name if cls is None else f"{cls.name}.{fn.name}"
                callee = cls.name if fn.name == "__init__" else fn.name
                for param, position in params:
                    yield f"{module}::{qualname}({param})", callee, param, position


def _passes(call: Call, param: str, position: Optional[int]) -> bool:
    args, keywords = call
    if any(kw.arg is None or kw.arg == param for kw in keywords):
        return True
    if position is None:
        return False
    return len(args) > position or any(isinstance(arg, ast.Starred) for arg in args)


@functools.lru_cache(maxsize=None)
def census() -> Tuple[str, ...]:
    """Every defaulted public parameter that no call passes."""
    calls = _calls()
    return tuple(
        key
        for key, callee, param, position in _defaulted_parameters()
        if not any(_passes(call, param, position) for call in calls.get(callee, ()))
    )


def test_every_defaulted_parameter_has_a_caller():
    uncalled = [key for key in census() if key not in ALLOWED]
    assert not uncalled, (
        "defaulted parameters no call passes; make each a named constant of "
        "its module, or name its standing decision in ALLOWED:\n  "
        + "\n  ".join(uncalled)
    )


def test_every_allowed_seam_is_still_uncalled():
    # An entry that gained a caller, or whose parameter went, is stale.
    assert sorted(set(ALLOWED) - set(census())) == []


def test_the_census_sees_every_way_of_passing():
    # For ``def f(a, b=1, *, c=2)``: ``b`` is position 1, ``c`` keyword-only.
    verdicts = {
        ("f(0, 1)", "b"): True,
        ("f(0)", "b"): False,
        ("f(0, c=1)", "c"): True,
        ("f(0, 1)", "c"): False,
        ("partial(f, 0, 1)", "b"): True,
        ("f(*xs)", "b"): True,
        ("f(*xs)", "c"): False,
        ("f(**kw)", "c"): True,
    }
    for (text, param), passes in verdicts.items():
        name, call = _callee(ast.parse(text).body[0].value)
        assert name == "f"
        assert _passes(call, param, {"b": 1, "c": None}[param]) is passes, (text, param)
