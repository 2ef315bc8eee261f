"""Every default of the library is stated once and used.

``FUZZ_CONFIG_CALLERS`` (``tests/test_ga_core.py``) holds ``FuzzConfig`` to
"a field nothing sets is deleted"; this census holds the whole library to
the same rule, in both directions.  It parses ``src/repro`` and collects
every defaulted parameter of a public function, method or ``__init__`` (a
public name, at module level or in a public top-level class), and every
defaulted ``__init__`` field of a public dataclass (``ClassVar`` and
``field(init=False)`` fields are not parameters).

- *Every default has a caller that sets it*: some call in ``src/``,
  ``tests/``, ``benchmarks/`` or ``examples/`` passes it: by keyword, by
  position, through ``functools.partial``, or through ``*``/``**``
  unpacking (``*args`` reaches every positional parameter, ``**kwargs``
  every parameter).  A parameter that only a test or a figure benchmark
  passes has a caller.
- *Every default has a caller that relies on it*: some call leaves it out.
  A default every call overrides is dead text; the parameter loses it.

Calls are matched by name, not by type: ``x.f(...)`` is a call of every
``f``, ``C(...)`` (and ``cls(...)`` inside ``C``) of ``C.__init__`` (or of
the nearest base class that defines one), and ``super().__init__(...)`` /
``Base.__init__(self, ...)`` of the base's.  A callable handed to a
function that calls its parameter is called there: ``f(C, ...)``, where
``f``'s body calls the parameter ``C`` arrives at, is a call of ``C`` with
the arguments of each such call in ``f``.  Two callers live outside
Python files and are parsed too: ``setup.py``'s ``console_scripts`` (each
calls its function with no argument) and the ``python -c`` steps of the CI
workflows.  A value that no call sets is a constant of the module whose
rule it is, not a parameter.  A parameter kept without a caller names its
standing decision in :data:`ALLOWED`.
"""

import ast
import functools
import re
import textwrap
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

#: A ``python -c "..."`` step of a workflow; the program ends at the first
#: unescaped double quote.
_PYTHON_C = re.compile(r'python[^\n"]*?\s-c\s+"((?:[^"\\]|\\.)*)"', re.S)


@functools.lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _console_scripts(setup: str) -> List[str]:
    """The functions ``setup.py``'s ``console_scripts`` run, as calls."""
    return [
        f"{target.split(':')[1].strip()}()"
        for node in ast.walk(ast.parse(setup))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for target in [node.value.partition("=")[2]]
        if re.fullmatch(r"\s*[\w.]+\s*:\s*\w+\s*", target)
    ]


def _inline_programs(workflow: str) -> List[str]:
    """The programs of a workflow's ``python -c`` steps."""
    programs = []
    for match in _PYTHON_C.finditer(workflow):
        text = match.group(1).replace('\\"', '"')
        # A multi-line program is indented like its YAML block.
        lines = text.split("\n")
        programs.append(lines[0] + "\n" + textwrap.dedent("\n".join(lines[1:])))
    return programs


@functools.lru_cache(maxsize=None)
def _entry_points() -> Tuple[ast.Module, ...]:
    """The callers outside Python files: console scripts and CI steps."""
    sources = _console_scripts((ROOT / "setup.py").read_text(encoding="utf-8"))
    for workflow in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        sources += _inline_programs(workflow.read_text(encoding="utf-8"))
    return tuple(ast.parse(source) for source in sources)


def _trees() -> Iterator[ast.Module]:
    for root in CALLERS:
        for path in sorted((ROOT / root).rglob("*.py")):
            yield _parse(path)
    yield from _entry_points()


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.dump(d) for d in node.decorator_list)


def _classes() -> Dict[str, Tuple[List[str], bool]]:
    """Every class in the scanned trees: name -> (base names, defines
    ``__init__``).  A dataclass's ``__init__`` is generated, so it counts."""
    classes: Dict[str, Tuple[List[str], bool]] = {}
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [name for name in map(_name, node.bases) if name]
                has_init = _is_dataclass(node) or any(
                    isinstance(item, ast.FunctionDef) and item.name == "__init__"
                    for item in node.body
                )
                classes.setdefault(node.name, (bases, has_init))
    return classes


def _parameter_calls(trees: Sequence[ast.Module]) -> Dict[str, List[Tuple[str, int, Call]]]:
    """Function name -> (parameter, position, call) for each call its body
    makes of one of its own parameters (``def f(make): make(x=1)``)."""
    forwarders: Dict[str, List[Tuple[str, int, Call]]] = {}
    for tree in trees:
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = {arg.arg: i for i, arg in enumerate(fn.args.posonlyargs + fn.args.args)}
            params.update((arg.arg, -1) for arg in fn.args.kwonlyargs)
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in params):
                    forwarders.setdefault(fn.name, []).append(
                        (node.func.id, params[node.func.id], (node.args, node.keywords))
                    )
    return forwarders


def _handed(call: Call, param: str, position: int) -> Optional[str]:
    """The name ``call`` passes as ``param`` (at ``position``, -1: keyword-only)."""
    args, keywords = call
    for kw in keywords:
        if kw.arg == param:
            return _name(kw.value)
    if 0 <= position < len(args) and not any(
        isinstance(arg, ast.Starred) for arg in args[: position + 1]
    ):
        return _name(args[position])
    return None


def _calls() -> Dict[str, List[Call]]:
    """Callee name -> every call of it in the scanned trees."""
    classes = _classes()
    trees = list(_trees())
    forwarders = _parameter_calls(trees)

    def constructor(name: Optional[str]) -> Optional[str]:
        # A class without its own ``__init__`` is built by its base's.
        seen = set()
        while name in classes and not classes[name][1] and name not in seen:
            seen.add(name)
            name = next(iter(classes[name][0]), name)
        return name

    calls: Dict[str, List[Call]] = {}

    def add(name: str, call: Call) -> None:
        calls.setdefault(name, []).append(call)
        if name in classes:
            calls.setdefault(constructor(name), []).append(call)

    for tree in trees:
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in ast.walk(cls):
                if not isinstance(node, ast.Call):
                    continue
                if _name(node.func) == "cls" and isinstance(node.func, ast.Name):
                    calls.setdefault(constructor(cls.name), []).append(
                        (node.args, node.keywords)
                    )
                if _name(node.func) != "__init__":
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
                if name is None:
                    continue
                add(name, call)
                for param, position, inner in forwarders.get(name, ()):
                    handed = _handed(call, param, position)
                    if handed is not None:
                        add(handed, inner)
    return calls


#: (key, callee name, parameter, position or None if keyword-only).
Parameter = Tuple[str, str, str, Optional[int]]


def _function_parameters(module: str, cls: Optional[ast.ClassDef],
                         fn: ast.FunctionDef) -> Iterator[Parameter]:
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


def _keyword(call: ast.expr, name: str) -> Optional[ast.expr]:
    if isinstance(call, ast.Call):
        for kw in call.keywords:
            if kw.arg == name:
                return kw.value
    return None


def _dataclass_fields(cls: ast.ClassDef,
                      bases: Dict[str, ast.ClassDef]) -> List[Tuple[str, bool, bool]]:
    """``cls``'s ``__init__`` fields in order: (name, has a default,
    keyword-only), inherited fields first."""
    inherited: List[Tuple[str, bool, bool]] = []
    for base in map(_name, cls.bases):
        if base in bases:
            inherited = _dataclass_fields(bases[base], bases)
    kw_only = any(
        isinstance(d, ast.Call) and "dataclass" in ast.dump(d.func)
        and isinstance(_keyword(d, "kw_only"), ast.Constant) and _keyword(d, "kw_only").value
        for d in cls.decorator_list
    )
    own: List[Tuple[str, bool, bool]] = []
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        annotation = ast.unparse(item.annotation)
        if "ClassVar" in annotation:
            continue
        if "KW_ONLY" in annotation:
            kw_only = True
            continue
        value = item.value
        is_field = isinstance(value, ast.Call) and _name(value.func) == "field"
        init = _keyword(value, "init") if is_field else None
        if isinstance(init, ast.Constant) and init.value is False:
            continue
        if is_field:
            defaulted = any(_keyword(value, k) is not None for k in ("default", "default_factory"))
            only = _keyword(value, "kw_only")
            field_kw_only = only.value if isinstance(only, ast.Constant) else kw_only
        else:
            defaulted, field_kw_only = value is not None, kw_only
        own.append((item.target.id, defaulted, bool(field_kw_only)))
    names = {name for name, _, _ in own}
    return [f for f in inherited if f[0] not in names] + own


def _field_parameters(module: str, cls: ast.ClassDef,
                      bases: Dict[str, ast.ClassDef]) -> Iterator[Parameter]:
    fields = _dataclass_fields(cls, bases)
    positional = [name for name, _, kw_only in fields if not kw_only]
    for name, defaulted, kw_only in fields:
        if defaulted:
            position = None if kw_only else positional.index(name)
            yield f"{module}::{cls.name}({name})", cls.name, name, position


def _defaulted_parameters() -> Iterator[Parameter]:
    """Every defaulted parameter of the library's public callables and every
    defaulted ``__init__`` field of its public dataclasses."""
    dataclasses = {
        node.name: node
        for path in sorted(LIBRARY.rglob("*.py"))
        for node in _parse(path).body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
    }
    for path in sorted(LIBRARY.rglob("*.py")):
        module = path.relative_to(LIBRARY).as_posix()
        tree = _parse(path)
        owners = [(None, tree)] + [
            (node, node) for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        ]
        for cls, owner in owners:
            if cls is not None and _is_dataclass(cls):
                yield from _field_parameters(module, cls, dataclasses)
            for fn in owner.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name.startswith("_") and fn.name != "__init__":
                    continue
                yield from _function_parameters(module, cls, fn)


def _passes(call: Call, param: str, position: Optional[int]) -> bool:
    """Whether ``call`` may pass ``param`` (unpacking may)."""
    args, keywords = call
    if any(kw.arg is None or kw.arg == param for kw in keywords):
        return True
    if position is None:
        return False
    return len(args) > position or any(isinstance(arg, ast.Starred) for arg in args)


def _surely_passes(call: Call, param: str, position: Optional[int]) -> bool:
    """Whether ``call`` passes ``param`` whatever it unpacks."""
    args, keywords = call
    if any(kw.arg == param for kw in keywords):
        return True
    if position is None:
        return False
    plain = next((i for i, arg in enumerate(args) if isinstance(arg, ast.Starred)), len(args))
    return plain > position


@functools.lru_cache(maxsize=None)
def _verdicts() -> Tuple[Tuple[str, bool, bool], ...]:
    """(key, some call may set it, some call relies on the default) for every
    defaulted parameter."""
    calls = _calls()
    verdicts = []
    for key, callee, param, position in _defaulted_parameters():
        its_calls = calls.get(callee, ())
        set_by_some = any(_passes(call, param, position) for call in its_calls)
        default_used = not its_calls or not all(
            _surely_passes(call, param, position) for call in its_calls
        )
        verdicts.append((key, set_by_some, default_used))
    return tuple(verdicts)


def census() -> Tuple[str, ...]:
    """Every defaulted public parameter that no call passes."""
    return tuple(key for key, set_by_some, _ in _verdicts() if not set_by_some)


def overridden() -> Tuple[str, ...]:
    """Every default that every call of its callable overrides."""
    return tuple(key for key, _, default_used in _verdicts() if not default_used)


def test_every_defaulted_parameter_has_a_caller():
    uncalled = [key for key in census() if key not in ALLOWED]
    assert not uncalled, (
        "defaulted parameters and dataclass fields no call passes; make each "
        "a named constant of its module (or field(init=False) if it is "
        "state), or name its standing decision in ALLOWED:\n  "
        + "\n  ".join(uncalled)
    )


def test_every_default_has_a_caller_that_relies_on_it():
    unused = [key for key in overridden() if key not in ALLOWED]
    assert not unused, (
        "defaults that every call overrides; delete each default (and any "
        "`x = x or Default()` branch behind it):\n  " + "\n  ".join(unused)
    )


def test_every_allowed_seam_is_still_uncalled():
    # An entry that gained a caller, or whose parameter went, is stale.
    assert sorted(set(ALLOWED) - set(census()) - set(overridden())) == []


def test_the_census_follows_a_callable_into_the_function_that_calls_it():
    # ``run_arrivals(TcpReceiver, program)`` builds the receiver it is handed.
    tree = ast.parse(textwrap.dedent("""
        def build(factory, n):
            return factory(n, rate=2)

        build(Receiver, 1)
        build(n=2, factory=Sender)
    """))
    forwarders = _parameter_calls([tree])
    ((param, position, inner),) = forwarders["build"]
    assert (param, position) == ("factory", 0)
    assert [kw.arg for kw in inner[1]] == ["rate"]
    handed = [_handed(_callee(node)[1], param, position) for node in ast.walk(tree)
              if isinstance(node, ast.Call) and _name(node.func) == "build"]
    assert handed == ["Receiver", "Sender"]
    module = _parse(ROOT / "tests" / "test_receiver.py")
    run_arrivals = next(
        node for node in module.body
        if isinstance(node, ast.FunctionDef) and node.name == "run_arrivals"
    )
    built = next(
        node for node in ast.walk(run_arrivals)
        if isinstance(node, ast.Call) and _name(node.func) == "receiver_class"
    )
    assert any(keywords is built.keywords for _, keywords in _calls()["TcpReceiver"])


def _one_call(text: str) -> Call:
    name, call = _callee(ast.parse(text).body[0].value)
    assert name == "f"
    return call


def test_the_census_sees_every_way_of_passing():
    # For ``def f(a, b=1, *, c=2)``: ``b`` is position 1, ``c`` keyword-only.
    # Each case: may the call pass it, and does it surely pass it.
    verdicts = {
        ("f(0, 1)", "b"): (True, True),
        ("f(0)", "b"): (False, False),
        ("f(0, c=1)", "c"): (True, True),
        ("f(0, 1)", "c"): (False, False),
        ("partial(f, 0, 1)", "b"): (True, True),
        ("f(*xs)", "b"): (True, False),
        ("f(0, 1, *xs)", "b"): (True, True),
        ("f(*xs)", "c"): (False, False),
        ("f(**kw)", "c"): (True, False),
        ("f(0, b=1, **kw)", "b"): (True, True),
    }
    for (text, param), (may, surely) in verdicts.items():
        call, position = _one_call(text), {"b": 1, "c": None}[param]
        assert _passes(call, param, position) is may, (text, param)
        assert _surely_passes(call, param, position) is surely, (text, param)


def _fields(source: str) -> List[Parameter]:
    tree = ast.parse(textwrap.dedent(source))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    return [
        param for cls in classes.values() if not cls.name.startswith("_")
        for param in _field_parameters("m.py", cls, classes)
    ]


def test_the_census_reads_dataclass_fields():
    params = _fields("""
        @dataclass
        class _Base:
            a: int
            b: int = 1

        @dataclass
        class C(_Base):
            rate: ClassVar[float] = 0.5
            c: int = 2
            state: int = field(init=False, default=0)
            d: List[int] = field(default_factory=list)
            e: int = field(default=3, kw_only=True)
            _: KW_ONLY
            f: int = 4
            g: int = field(default=5, kw_only=False)

        @dataclass(kw_only=True)
        class K:
            x: int = 1
    """)
    # Inherited fields come first; ClassVar and init=False fields are not
    # parameters; a keyword-only field (by field(), KW_ONLY or the
    # decorator) has no position.
    assert params == [
        ("m.py::C(b)", "C", "b", 1),
        ("m.py::C(c)", "C", "c", 2),
        ("m.py::C(d)", "C", "d", 3),
        ("m.py::C(e)", "C", "e", None),
        ("m.py::C(f)", "C", "f", None),
        ("m.py::C(g)", "C", "g", 4),
        ("m.py::K(x)", "K", "x", None),
    ]


def test_the_census_judges_both_directions():
    # A default is dead when every call overrides it, alive when one call
    # leaves it out or when no call can be told apart (``**kw``).
    calls = [_one_call("f(0, 1, c=2)"), _one_call("f(0, b=3, c=4)")]
    assert all(_surely_passes(call, "b", 1) for call in calls)
    calls.append(_one_call("f(0, **kw)"))
    assert not all(_surely_passes(call, "b", 1) for call in calls)
    assert any(_passes(call, "b", 1) for call in calls)


def test_the_census_reads_callers_outside_python_files():
    setup = 'setup(entry_points={"console_scripts": ["repro-x = repro.cli:x_main"]})'
    assert _console_scripts(setup) == ["x_main()"]
    workflow = textwrap.dedent('''
        steps:
          - run: |
              python -c "from m import f; print(f())" > out.txt
              python -c "
              import sys
              sys.exit(g(\\"a\\"))
              "
    ''')
    programs = _inline_programs(workflow)
    assert programs[0] == "from m import f; print(f())\n"
    names = [
        _name(node.func) for program in programs
        for node in ast.walk(ast.parse(program)) if isinstance(node, ast.Call)
    ]
    assert names == ["print", "f", "exit", "g"]
