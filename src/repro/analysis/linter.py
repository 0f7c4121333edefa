"""AST-based protocol lint rules over ``src/repro``.

The static half of the analysis subsystem: rules that catch protocol and
determinism hazards *before* a simulation runs.  Each rule has a stable
id (``VS1xx``), a scope (which package paths it applies to) and a small
exclusion list for the legitimate counterexamples (e.g. the stage wiring
is *supposed* to reach the fabric).

Rules are deliberately syntactic — they inspect one file's AST with no
type inference — so a clean pass is cheap enough for CI and the pytest
hook, and a new rule is one visitor function plus a catalogue entry (see
DESIGN.md "Adding a rule").

Run with ``python -m repro.analysis`` or ``pytest --repro-lint``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "LintViolation",
    "STATIC_RULES",
    "lint_paths",
    "lint_source",
    "package_root",
    "parse_select",
]

#: static rule catalogue: rule id -> one-line description.
STATIC_RULES: Dict[str, str] = {
    "VS101": (
        "endpoint code reaches fabric/NIC internals instead of the "
        "verbs API (core/ must stay a verbs client)"),
    "VS102": (
        "send posted before receive provisioning on the same path "
        "(the paper's Receive-before-Send rule, §4.4)"),
    "VS103": (
        "buffer payload/length written directly, bypassing the "
        "registered MemoryRegion interface (use Buffer.fill/deposit)"),
    "VS104": (
        "nondeterminism source (wall-clock time, unseeded randomness, "
        "uuid/secrets) inside simulation-ordered code"),
    "VS105": (
        "iteration directly over a set (unordered: breaks the "
        "determinism suite; sort or use an ordered container)"),
    "VS106": (
        "Fabric.route()/route_mcast() called outside fabric/ and "
        "verbs/ (topology bypass: go through the verbs API so the "
        "switch-path model applies)"),
    "VS107": (
        "tracer event emitted without a simulated-ns timestamp "
        "(pass ts_ns= or the event lands at poll time, skewing the "
        "critical-path analyzer)"),
    "VS108": (
        "Packet/PacketTrain constructed directly outside fabric/ "
        "(use fabric.packet.make_train so RC messages are segmented "
        "into MTU trains consistently)"),
    "VS109": (
        "self-referential closure in simulation code (a nested "
        "callback capturing itself or stored onto the object it "
        "captures creates a reference cycle the event loop keeps "
        "alive — the _HopWalk leak class)"),
    "VS110": (
        "raw design-string dispatch (DESIGNS[...] / DESIGNS.get) "
        "outside the policy layer (go through resolve_design or a "
        "StagePlan so eager validation and policy planning stay the "
        "single dispatch path)"),
}


@dataclass(frozen=True)
class LintViolation:
    """One static-analysis finding."""

    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line} {self.rule} {self.message}"


def package_root() -> Path:
    """The ``src/repro`` directory this installation lints by default."""
    return Path(__file__).resolve().parents[1]


def _relative_name(path: Path) -> str:
    """Path relative to the ``repro`` package (rule scopes key on it)."""
    parts = path.resolve().parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1:])
    return path.name


# -- rule scopes -----------------------------------------------------------

#: directories whose code runs inside (and orders) the simulation.
_SIM_ORDERED = ("sim/", "core/", "verbs/", "fabric/", "memory/")


def _in_scope(rel: str, prefixes: Sequence[str],
              exclude: Sequence[str] = ()) -> bool:
    return rel.startswith(tuple(prefixes)) and rel not in exclude


# -- individual rules ------------------------------------------------------

def _rule_vs101(rel: str, tree: ast.AST) -> Iterable[Tuple[int, str]]:
    """Endpoint code touching fabric/NIC internals (VS101)."""
    # The stage wiring legitimately builds on the Fabric, and the policy
    # layer reads cluster/fabric telemetry to plan stages; everything
    # else under core/ must speak verbs only.
    if not _in_scope(rel, ("core/",),
                     exclude=("core/stage.py", "core/policy.py")):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("repro.fabric"):
                yield (node.lineno,
                       f"imports {node.module} (fabric internals)")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.fabric"):
                    yield (node.lineno,
                           f"imports {alias.name} (fabric internals)")
        elif isinstance(node, ast.Attribute) and node.attr in ("fabric",
                                                              "nic"):
            yield (node.lineno,
                   f"touches .{node.attr} (use the verbs API)")


_RECV_PROVISIONERS = frozenset(
    {"post_recv", "post_recv_buffer", "post_recv_slots"})


def _rule_vs102(rel: str, tree: ast.AST) -> Iterable[Tuple[int, str]]:
    """Send posted before receive provisioning in one function (VS102)."""
    if not _in_scope(rel, ("core/",)):
        return
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first_send: Optional[int] = None
        first_recv: Optional[int] = None
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)):
                continue
            name = call.func.attr
            if name == "post_send" and first_send is None:
                first_send = call.lineno
            elif name in _RECV_PROVISIONERS and first_recv is None:
                first_recv = call.lineno
        if (first_send is not None and first_recv is not None
                and first_send < first_recv):
            yield (first_send,
                   f"post_send at line {first_send} precedes receive "
                   f"provisioning at line {first_recv} in {node.name}()")


def _rule_vs103(rel: str, tree: ast.AST) -> Iterable[Tuple[int, str]]:
    """Raw buffer field writes outside the buffer/verbs layers (VS103)."""
    # The verbs layer *is* the NIC (it deposits arriving payloads), and
    # the buffer layer implements fill/deposit/reset themselves.
    if rel.startswith(("verbs/", "memory/")) or not rel.endswith(".py"):
        return
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if not (isinstance(target, ast.Attribute)
                    and target.attr in ("payload", "length")):
                continue
            base = target.value
            if isinstance(base, ast.Name) and base.id == "self":
                continue  # an object updating its own fields
            yield (target.lineno,
                   f"direct write to .{target.attr} bypasses the "
                   f"registered MemoryRegion (use Buffer.fill/deposit)")


#: modules whose import into sim-ordered code is a determinism hazard.
_NONDET_MODULES = frozenset({"time", "uuid", "secrets"})
#: module-level functions drawing on hidden global state.
_NONDET_CALLS = {
    "time": None,        # every function of time is wall clock
    "random": {"Random", "SystemRandom"},  # seeded instances are fine
    "uuid": None,
    "secrets": None,
    "os": {"urandom"},   # flag only os.urandom, not os.path etc.
    "datetime": {"now", "utcnow", "today"},
}


def _rule_vs104(rel: str, tree: ast.AST) -> Iterable[Tuple[int, str]]:
    """Nondeterminism sources in simulation-ordered code (VS104)."""
    if not _in_scope(rel, _SIM_ORDERED):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _NONDET_MODULES:
                    yield (node.lineno,
                           f"import {alias.name} (wall clock / entropy has "
                           f"no place in simulated time)")
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            if root in _NONDET_MODULES or root == "random":
                yield (node.lineno,
                       f"from {node.module} import ... (unseeded/wall-"
                       f"clock source)")
        elif isinstance(node, ast.Call):
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)):
                continue
            module, attr = func.value.id, func.attr
            if module == "os" and attr == "urandom":
                yield (node.lineno, "os.urandom() is nondeterministic")
            elif module == "random" and attr not in _NONDET_CALLS["random"]:
                yield (node.lineno,
                       f"random.{attr}() uses the unseeded global RNG "
                       f"(use a seeded random.Random instance)")
            elif module == "time":
                yield (node.lineno,
                       f"time.{attr}() reads the wall clock")
            elif module == "datetime" and attr in _NONDET_CALLS["datetime"]:
                yield (node.lineno,
                       f"datetime.{attr}() reads the wall clock")


def _rule_vs105(rel: str, tree: ast.AST) -> Iterable[Tuple[int, str]]:
    """Direct iteration over sets (VS105)."""
    if not _in_scope(rel, _SIM_ORDERED):
        return

    def is_set_expr(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Name)
                and expr.func.id in ("set", "frozenset"))

    for node in ast.walk(tree):
        iters: List[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if is_set_expr(it):
                yield (it.lineno,
                       "iterating a set directly: ordering is undefined "
                       "(sort it, or iterate an ordered container)")


#: paths that legitimately drive the fabric directly: the baselines
#: model whole transports (kernel TCP, MPI) on raw fabric routes, and
#: the kernel microbenchmark measures the routing hot path itself.
_VS106_EXEMPT = ("baselines/", "bench/kernel.py")


def _rule_vs106(rel: str, tree: ast.AST) -> Iterable[Tuple[int, str]]:
    """Direct Fabric.route*/route_mcast calls outside fabric//verbs/
    (VS106).

    Everything above the verbs layer must send through Queue Pairs —
    a raw ``fabric.route(...)`` bypasses the topology's switch-path
    model (trunk ports, multicast replication point) as well as the
    NIC's QP-context cache accounting.
    """
    if rel.startswith(("fabric/", "verbs/")) or rel.startswith(_VS106_EXEMPT):
        return
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("route", "route_mcast")):
            continue
        base = node.func.value
        if ((isinstance(base, ast.Name) and base.id == "fabric")
                or (isinstance(base, ast.Attribute)
                    and base.attr == "fabric")):
            yield (node.lineno,
                   f"calls Fabric.{node.func.attr}() directly (topology "
                   f"bypass; send through the verbs API)")


#: tracer methods whose 4th positional parameter is the ``ts_ns`` stamp.
_TS_EVENT_METHODS = frozenset({"begin", "end", "instant", "counter"})


def _rule_vs107(rel: str, tree: ast.AST) -> Iterable[Tuple[int, str]]:
    """Timestamp-less tracer events in simulation-ordered code (VS107).

    ``Tracer.begin/end/instant/counter`` default ``ts_ns`` to the *call
    moment* (``sim.now``).  Instrumentation sites inside the simulation
    frequently record an event for an earlier or later instant (a span
    reconstructed after a poll, a stall noticed on wakeup); relying on
    the default silently stamps those at emission time, which skews the
    causal record the ``repro.obs`` critical-path analyzer consumes.
    Sites must pass the timestamp explicitly — positionally (the 4th
    argument) or as ``ts_ns=`` — or use ``complete``/``span``, whose
    start times are always explicit.
    """
    if not _in_scope(rel, _SIM_ORDERED):
        return
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TS_EVENT_METHODS):
            continue
        base = node.func.value
        mentions_tracer = (
            (isinstance(base, ast.Name) and "tracer" in base.id)
            or (isinstance(base, ast.Attribute) and "tracer" in base.attr))
        if not mentions_tracer:
            continue  # e.g. registry.counter(name): a metrics instrument
        has_ts = (len(node.args) >= 4
                  or any(kw.arg == "ts_ns" for kw in node.keywords))
        if not has_ts:
            yield (node.lineno,
                   f"tracer.{node.func.attr}() without ts_ns: the event "
                   f"is stamped at emission time, not the instant it "
                   f"describes (pass ts_ns= explicitly)")


def _rule_vs108(rel: str, tree: ast.AST) -> Iterable[Tuple[int, str]]:
    """Direct Packet/PacketTrain construction outside fabric/ (VS108).

    ``make_train`` is the one place that knows how a message's length
    and transport turn into wire bytes and MTU-train segmentation; a
    hand-rolled ``Packet(...)`` elsewhere silently ships a one-packet
    train for a multi-MTU RC message, undercounting serialization
    boundaries under ``REPRO_TRAINS=0`` and skewing packet accounting.
    """
    if rel.startswith("fabric/"):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in ("Packet", "PacketTrain"):
            yield (node.lineno,
                   f"constructs {name} directly (use "
                   f"fabric.packet.make_train for MTU-train segmentation)")


#: sites where a self-referential callback is the accepted idiom (each
#: breaks its cycle by hand or is a one-shot whose cycle dies with the
#: run; reviewed when the rule landed).
_VS109_EXEMPT: Tuple[str, ...] = ()


def _rule_vs109(rel: str, tree: ast.AST) -> Iterable[Tuple[int, str]]:
    """Self-referential closures in simulation code (VS109).

    Two shapes of the ``_HopWalk`` leak class (a per-hop walker that
    rescheduled itself held its whole capture set alive across the run):

    * a nested function that references *its own name* — the closure
      cell then points back at the function object, a cycle only the
      cyclic GC can reclaim, so every captured local (buffers, QPs,
      endpoints) outlives its last event until a collection happens;
    * a closure capturing ``self`` that is stored onto ``self`` (attr
      assignment, or appended/registered into one of ``self``'s
      containers) — ``self -> attr -> closure -> self``.

    Both are fixed the same way: capture exactly what the callback
    needs (locals, not ``self``), or clear the stored reference when
    the protocol step retires.
    """
    if not _in_scope(rel, ("sim/", "fabric/", "verbs/", "core/"),
                     exclude=_VS109_EXEMPT):
        return
    for meth in ast.walk(tree):
        if not isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        #: nested defs of this function that capture ``self``.
        captures_self: Dict[str, int] = {}
        for node in ast.iter_child_nodes(meth):
            for inner in ast.walk(node):
                if not isinstance(inner, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                    continue
                refs_self = False
                for ref in ast.walk(inner):
                    if ref is inner:
                        continue
                    if (isinstance(ref, ast.Name)
                            and isinstance(ref.ctx, ast.Load)):
                        if ref.id == inner.name:
                            yield (inner.lineno,
                                   f"nested function {inner.name}() "
                                   f"references itself: the closure cell "
                                   f"cycle keeps every captured local "
                                   f"alive until a GC pass (pass the "
                                   f"callback explicitly instead)")
                            break
                        if ref.id == "self":
                            refs_self = True
                else:
                    if refs_self:
                        captures_self[inner.name] = inner.lineno
        if not captures_self:
            continue

        def self_attr(expr: ast.expr) -> bool:
            return (isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self")

        for node in ast.walk(meth):
            stored: Optional[str] = None
            if isinstance(node, ast.Assign):
                if (isinstance(node.value, ast.Name)
                        and node.value.id in captures_self
                        and any(self_attr(t) or (
                            isinstance(t, ast.Subscript)
                            and self_attr(t.value))
                            for t in node.targets)):
                    stored = node.value.id
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("append", "add", "insert",
                                         "register", "on")
                  and self_attr(node.func.value)):
                for arg in node.args:
                    if (isinstance(arg, ast.Name)
                            and arg.id in captures_self):
                        stored = arg.id
                        break
            if stored is not None:
                yield (node.lineno,
                       f"closure {stored}() captures self and is stored "
                       f"back onto self (reference cycle: self -> "
                       f"container -> closure -> self; capture the "
                       f"fields the callback needs instead)")


#: the only modules that may dispatch on raw design strings: the design
#: registry itself and the policy layer built directly on it.
_VS110_ALLOWED = ("core/designs.py", "core/policy.py")


def _rule_vs110(rel: str, tree: ast.AST) -> Iterable[Tuple[int, str]]:
    """Raw design-string dispatch outside the policy layer (VS110).

    ``DESIGNS[name]`` (or ``DESIGNS.get(name)``) scattered through the
    tree is how the pre-policy code wired a design choice to a stage:
    unvalidated strings flowed through three layers before a KeyError
    surfaced deep in stage setup.  Everything outside the registry and
    the policy layer must resolve through
    :func:`repro.core.designs.resolve_design` (eager, with a helpful
    error) or receive a planned :class:`~repro.core.policy.StagePlan`.
    """
    if not rel.endswith(".py") or rel in _VS110_ALLOWED:
        return
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == "DESIGNS"):
            yield (node.lineno,
                   "DESIGNS[...] subscript outside the policy layer "
                   "(use resolve_design() or pass a StagePlan)")
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get"
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "DESIGNS"):
            yield (node.lineno,
                   "DESIGNS.get(...) outside the policy layer "
                   "(use resolve_design() or pass a StagePlan)")


_RULES: Dict[str, Callable[[str, ast.AST], Iterable[Tuple[int, str]]]] = {
    "VS101": _rule_vs101,
    "VS102": _rule_vs102,
    "VS103": _rule_vs103,
    "VS104": _rule_vs104,
    "VS105": _rule_vs105,
    "VS106": _rule_vs106,
    "VS107": _rule_vs107,
    "VS108": _rule_vs108,
    "VS109": _rule_vs109,
    "VS110": _rule_vs110,
}


def parse_select(spec: Optional[str]) -> Optional[Tuple[str, ...]]:
    """Parse and validate a comma-separated rule-id selection.

    Returns ``None`` for "run everything" (no selection given).  Raises
    ``ValueError`` on unknown rule ids or an empty selection — a typo'd
    ``--select VS999`` must not silently lint nothing and exit green.
    Both the CLI and the pytest plugin route selections through here, so
    the two entry points agree on what a selection means.
    """
    if spec is None:
        return None
    rules = tuple(part.strip() for part in spec.split(",") if part.strip())
    if not rules:
        raise ValueError("empty rule selection: nothing would be linted")
    unknown = [r for r in rules if r not in _RULES]
    if unknown:
        raise ValueError(
            f"unknown lint rule(s): {', '.join(unknown)} "
            f"(known: {', '.join(_RULES)})")
    return rules


# -- driver ----------------------------------------------------------------

def lint_source(rel: str, source: str, path: Optional[str] = None,
                select: Optional[Sequence[str]] = None
                ) -> List[LintViolation]:
    """Lint one file's source text.  ``rel`` is the path relative to the
    ``repro`` package (rule scopes key on it); ``path`` is what reports
    display (defaults to ``rel``)."""
    shown = path or rel
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [LintViolation("VS000", shown, exc.lineno or 0,
                              f"syntax error: {exc.msg}")]
    violations: List[LintViolation] = []
    for rule_id, rule in _RULES.items():
        if select and rule_id not in select:
            continue
        for line, message in rule(rel, tree):
            violations.append(LintViolation(rule_id, shown, line, message))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def lint_paths(paths: Iterable[Path],
               select: Optional[Sequence[str]] = None
               ) -> List[LintViolation]:
    """Lint every ``.py`` file under the given files/directories."""
    violations: List[LintViolation] = []
    for root in paths:
        root = Path(root)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            rel = _relative_name(file)
            source = file.read_text(encoding="utf-8")
            violations.extend(
                lint_source(rel, source, path=str(file), select=select))
    return violations
