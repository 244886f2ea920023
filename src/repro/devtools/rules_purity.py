"""Purity contract rules (``REPRO-P00x``).

Contract (DESIGN.md §2.10): a protocol that declares a
``tick_footprint`` (opting into hazard-batched execution) promises that
``tick_values`` is a pure function of ``(state, own, observed)`` — the
engine pre-draws every sample, may evaluate ticks speculatively, and
replays them across engines expecting identical values.  A counts
protocol that declares ``tick_samples`` promises the same of its scalar
``tick_rule(own, sampled, m)``: the counts tick engines draw every
uniform themselves and replay one-replication ensembles value for
value.  Mutating ``self`` or an argument (**REPRO-P001**) or drawing
fresh randomness (**REPRO-P002**) inside either hook silently
de-synchronizes the engines.

**REPRO-P003** is the registry-signature audit: registered
``ParamSpec`` metadata must match what the factory actually accepts, so
``repro simulate --param k=3`` never dies inside ``__init__`` with a
``TypeError`` that the registry promised could not happen.  It is a
``scope="project"`` rule — it imports the package and inspects live
signatures, and degrades to a no-op when the runtime deps are missing.
"""

from __future__ import annotations

import ast
import inspect
from typing import List, Optional, Sequence, Set

from .lint import Finding, ModuleContext, register_rule

__all__ = []

#: Generator draw methods (numpy Generator + RandomState surface).
_DRAW_METHODS = {
    "binomial", "bytes", "choice", "exponential", "geometric", "integers",
    "multinomial", "normal", "permutation", "permuted", "poisson",
    "rand", "randint", "randn", "random", "shuffle", "standard_normal",
    "uniform",
}

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "add", "append", "clear", "discard", "extend", "fill", "insert",
    "itemset", "pop", "popitem", "put", "remove", "reverse",
    "setdefault", "sort", "update",
}


#: pure hook -> the class attribute whose declaration opts a class in.
_PURE_HOOKS = {"tick_values": "tick_footprint", "tick_rule": "tick_samples"}


def _pure_hook_defs(tree: ast.AST):
    """(class, hook def) pairs for the pure hooks of :data:`_PURE_HOOKS`:
    ``tick_values`` of classes declaring a footprint, ``tick_rule`` of
    classes declaring a sample count."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        declared = set()
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
                value: Optional[ast.AST] = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names = [stmt.target.id]
                value = stmt.value
            else:
                continue
            if not (isinstance(value, ast.Constant) and value.value is None):
                declared.update(names)  # the base class's `= None` opt-out is fine
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef) and _PURE_HOOKS.get(stmt.name) in declared:
                yield cls, stmt


def _root_name(node: ast.AST) -> Optional[str]:
    """The base Name of an Attribute/Subscript chain (``a`` in ``a.b[c].d``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _param_names(fn: ast.FunctionDef) -> Set[str]:
    args = fn.args
    names = {a.arg for a in args.args + args.kwonlyargs + args.posonlyargs}
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            names.add(extra.arg)
    return names


@register_rule(
    "REPRO-P001",
    "tick_values / tick_rule must not mutate self or their arguments",
)
def tick_values_no_mutation(ctx: ModuleContext) -> List[Finding]:
    out: List[Finding] = []
    for cls, fn in _pure_hook_defs(ctx.tree):
        frozen = _param_names(fn)
        for node in ast.walk(fn):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = _root_name(target)
                    if root in frozen:
                        out.append(
                            ctx.finding(
                                "REPRO-P001",
                                target,
                                f"{cls.name}.{fn.name} mutates {root!r}; the hook "
                                "must be pure (engines replay it speculatively)",
                            )
                        )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
            ):
                root = _root_name(node.func.value)
                if root in frozen:
                    out.append(
                        ctx.finding(
                            "REPRO-P001",
                            node,
                            f"{cls.name}.{fn.name} calls .{node.func.attr}() on "
                            f"{root!r}; the hook must be pure",
                        )
                    )
    return out


@register_rule(
    "REPRO-P002",
    "tick_values / tick_rule must not draw randomness",
)
def tick_values_no_draws(ctx: ModuleContext) -> List[Finding]:
    out: List[Finding] = []
    for cls, fn in _pure_hook_defs(ctx.tree):
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func) or ""
            draw = resolved.startswith("numpy.random.") or (
                isinstance(node.func, ast.Attribute) and node.func.attr in _DRAW_METHODS
            )
            if draw:
                out.append(
                    ctx.finding(
                        "REPRO-P002",
                        node,
                        f"{cls.name}.{fn.name} draws randomness; samples are "
                        "pre-drawn by the engine and arrive as arguments",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# REPRO-P003: registry-signature audit (project scope)
# ---------------------------------------------------------------------------
def _locate(factory) -> Optional[tuple]:
    try:
        target = inspect.unwrap(factory)
        path = inspect.getsourcefile(target)
        if path is None:
            return None
        _, lineno = inspect.getsourcelines(target)
        return path, lineno
    except (OSError, TypeError):
        return None


def _audit_factory(factory, params, n_positional: int, label: str) -> List[Finding]:
    try:
        sig = inspect.signature(factory)
    except (TypeError, ValueError):
        return []
    location = _locate(factory)
    if location is None:
        return []
    path, lineno = location

    def finding(message: str) -> Finding:
        return Finding("REPRO-P003", path, lineno, 0, message)

    out: List[Finding] = []
    sig_params = list(sig.parameters.values())
    # The first n_positional parameters are filled positionally by the
    # runner (topologies/initials take `n`); the rest must be
    # keyword-reachable.
    remainder = sig_params[n_positional:]
    keyword_ok = {
        p.name
        for p in remainder
        if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }
    has_var_kw = any(p.kind is inspect.Parameter.VAR_KEYWORD for p in sig_params)
    declared = {spec.name: spec for spec in params}
    for spec in params:
        if spec.name not in keyword_ok and not has_var_kw:
            out.append(
                finding(
                    f"{label} declares ParamSpec {spec.name!r} but the factory "
                    f"signature {sig} does not accept it"
                )
            )
    for p in remainder:
        if p.kind in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD):
            continue
        if p.default is not inspect.Parameter.empty:
            continue
        spec = declared.get(p.name)
        if spec is None:
            out.append(
                finding(
                    f"{label}: factory parameter {p.name!r} has no default but no "
                    "ParamSpec declares it; building from a spec would raise TypeError"
                )
            )
        elif not spec.required:
            out.append(
                finding(
                    f"{label}: factory parameter {p.name!r} has no default but its "
                    "ParamSpec is not marked required=True"
                )
            )
    return out


@register_rule(
    "REPRO-P003",
    "registered ParamSpec metadata matches factory signatures",
    scope="project",
)
def registry_signature_audit(files: Sequence) -> List[Finding]:
    try:
        import repro  # noqa: F401 - populates the registries
        from repro.api import registry
    except Exception:
        return []  # linting outside a working install: parse-only rules still ran
    out: List[Finding] = []
    plain = [
        (registry.TOPOLOGIES, 1, "topology"),
        (registry.INITIALS, 1, "initial"),
        (registry.DELAYS, 0, "delay"),
        (registry.STOPS, 0, "stop"),
        # fault wrappers take the protocol to wrap as their positional arg
        (registry.FAULTS, 1, "fault"),
    ]
    for reg, n_positional, kind in plain:
        for name in reg.names():
            entry = reg.get(name)
            out.extend(
                _audit_factory(entry.factory, entry.params, n_positional, f"{kind} {name!r}")
            )
    for name in registry.PROTOCOLS.names():
        entry = registry.PROTOCOLS.get(name)
        for realisation in ("counts", "synchronous", "sequential"):
            factory = getattr(entry, realisation)
            if factory is None:
                continue
            out.extend(
                _audit_factory(
                    factory, entry.params, 0, f"protocol '{name}/{realisation}'"
                )
            )
    return out
