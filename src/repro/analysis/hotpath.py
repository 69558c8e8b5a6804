"""RR010: Python-level per-entity work on the substrate hot path.

ROADMAP item 1 — the vectorized substrate engine — needs a worklist:
*which* loops, dict-indexed scores and per-call numpy allocations
actually sit under ``Recommender.fit/predict/recommend/recommend_many``?
This rule computes exactly that.  It is a **project rule**: during the
per-module pass it records, for every function in ``repro.recsys``,
its name-matched callees (:mod:`repro.analysis.symbols`) plus three
families of *candidate* findings; :meth:`finish` then builds the
project call graph (:mod:`repro.analysis.callgraph`), walks
reachability from the hot roots, and emits only the candidates that
can run under a hot entry point.

Candidate families (heuristic by design — this is a ratchet, not a
gate, so every finding is either fixed or carries a justified baseline
entry):

* ``loop-<name>`` — a ``for`` loop or comprehension iterating an
  expression whose terminal name smells per-entity (``users``,
  ``items``, ``ratings_by(...)``, ``candidates``, ``neighbors``…);
* ``subscript-<name>`` — dict-indexed scoring: subscripting a mapping
  with a name bound by an enclosing loop target (``ratings[iid]``
  inside ``for iid in …``);
* ``np-alloc-<ctor>`` — a fresh numpy array materialised per call
  (``np.array``/``asarray``/``zeros``/``ones``/``fromiter``) anywhere
  in a hot-reachable function: per-pair allocation is the allocation
  the batch refactor exists to hoist.

Findings are warnings: the committed baseline *is* the vectorization
worklist, and shrinking it is the ratchet.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import CallGraph
from repro.analysis.engine import Finding, ModuleInfo, Rule, dotted_name
from repro.analysis.symbols import FunctionSymbol, SymbolTable, callee_name

__all__ = ["HotPathVectorizationRule"]

#: Entry points whose transitive callees form the substrate hot path.
_HOT_ROOTS = frozenset({"fit", "predict", "recommend", "recommend_many"})

#: Terminal-name fragments that mark an iterable as per-entity.
_ENTITY_FRAGMENTS = (
    "user", "item", "rating", "candidate", "neighbor", "shopper",
)

#: numpy constructors whose per-call cost the batch refactor hoists.
_NP_ALLOCATORS = frozenset({"array", "asarray", "zeros", "ones", "fromiter"})

_LOOP_NODES = (ast.For, ast.comprehension)


def _entity_terminal(node: ast.expr) -> str | None:
    """The per-entity terminal name of an iterable expression, if any."""
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
    else:
        name = dotted_name(node)
    if name is None:
        return None
    terminal = name.rsplit(".", 1)[-1]
    lowered = terminal.lower()
    if any(fragment in lowered for fragment in _ENTITY_FRAGMENTS):
        return terminal
    return None


class HotPathVectorizationRule(Rule):
    """RR010: per-entity Python work reachable from the hot entry points."""

    rule_id = "RR010"
    name = "hot-path-vectorization"
    severity = "warning"
    rationale = (
        "A Python-level per-user/per-item loop, per-element dict "
        "lookup, or per-call numpy allocation under "
        "fit/predict/recommend multiplies interpreter overhead by the "
        "world size; the vectorized substrate engine (ROADMAP item 1) "
        "replaces these with batched matrix passes."
    )
    fix_hint = (
        "batch the computation: precompute a contiguous matrix once, "
        "score all entities in one vectorized pass, and hoist "
        "allocations out of the per-call path (see "
        "repro.recsys.similarity.pearson_batch)"
    )
    project_rule = True

    def __init__(self) -> None:
        super().__init__()
        self._table = SymbolTable()
        #: qualname → candidate finding dicts, project-wide.
        self._candidates: dict[str, list[dict]] = {}
        #: per-module facts captured by the last check_module call.
        self._module_facts: dict | None = None
        self._loop_targets: list[set[str]] = []
        self._function_stack: list[str] = []

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.package.startswith("repro.recsys")

    # -- per-module collection --------------------------------------------

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        self._module_facts = None
        if not self.applies_to(module):
            return []
        self._loop_targets = []
        self._function_stack = []
        self._module_candidates: dict[str, list[dict]] = {}
        super().check_module(module)
        symbols = self._table.add_module(module)
        self._module_facts = {
            "symbols": {
                qualname: symbol.as_dict()
                for qualname, symbol in symbols.items()
            },
            "candidates": self._module_candidates,
        }
        for qualname, candidates in self._module_candidates.items():
            self._candidates.setdefault(qualname, []).extend(candidates)
        return []

    def export_facts(self) -> dict | None:
        return self._module_facts

    def import_facts(self, facts: dict) -> None:
        self._table.merge(
            {
                qualname: FunctionSymbol.from_dict(data)
                for qualname, data in facts["symbols"].items()
            }
        )
        for qualname, candidates in facts["candidates"].items():
            self._candidates.setdefault(qualname, []).extend(candidates)

    # -- candidate detection ----------------------------------------------

    @property
    def _qualname(self) -> str:
        return f"{self.module.package}.{self.scope}"

    def _candidate(self, node: ast.AST, slug: str, message: str) -> None:
        if not self.in_function:
            return
        self._module_candidates.setdefault(self._qualname, []).append(
            {
                "path": self.module.rel_path,
                "line": getattr(node, "lineno", 0),
                "col": getattr(node, "col_offset", 0),
                "scope": self.scope,
                "slug": slug,
                "message": message,
            }
        )

    def enter_function(self, node: ast.AST) -> None:
        self._loop_targets.append(set())

    def exit_function(self, node: ast.AST) -> None:
        self._loop_targets.pop()

    def _note_loop(self, target: ast.expr, iterable: ast.expr) -> None:
        terminal = _entity_terminal(iterable)
        if terminal is not None:
            self._candidate(
                iterable,
                f"loop-{terminal}",
                f"Python-level loop over `{terminal}` on the hot path",
            )
        if self._loop_targets:
            for child in ast.walk(target):
                if isinstance(child, ast.Name):
                    self._loop_targets[-1].add(child.id)

    def visit_For(self, node: ast.For) -> None:
        self._note_loop(node.target, node.iter)
        self.generic_visit(node)

    def _visit_comprehension_holder(self, node: ast.AST) -> None:
        for comp in getattr(node, "generators", ()):
            self._note_loop(comp.target, comp.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension_holder(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension_holder(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension_holder(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension_holder(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (
            self._loop_targets
            and self._loop_targets[-1]
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Name)
            and node.slice.id in self._loop_targets[-1]
        ):
            receiver = dotted_name(node.value)
            if receiver is not None:
                terminal = receiver.rsplit(".", 1)[-1]
                self._candidate(
                    node,
                    f"subscript-{terminal}",
                    f"dict-indexed scoring: `{receiver}[{node.slice.id}]` "
                    "inside a per-entity loop",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None and "." in name:
            owner, terminal = name.rsplit(".", 1)
            if owner in ("np", "numpy") and terminal in _NP_ALLOCATORS:
                self._candidate(
                    node,
                    f"np-alloc-{terminal}",
                    f"per-call numpy allocation `{name}(...)` on the "
                    "hot path",
                )
        self.generic_visit(node)

    # -- project resolution -----------------------------------------------

    def finish(self) -> list[Finding]:
        graph = CallGraph(self._table)
        roots = graph.roots(lambda symbol: symbol.name in _HOT_ROOTS)
        hot = graph.reachable_from(roots)
        findings: list[Finding] = []
        for qualname in sorted(self._candidates):
            if qualname not in hot:
                continue
            for candidate in self._candidates[qualname]:
                findings.append(
                    Finding(
                        rule_id=self.rule_id,
                        severity=self.severity,
                        path=candidate["path"],
                        line=candidate["line"],
                        col=candidate["col"],
                        scope=candidate["scope"],
                        slug=candidate["slug"],
                        message=candidate["message"],
                        fix_hint=self.fix_hint,
                    )
                )
        # Project rules are single-use per run.
        self._table = SymbolTable()
        self._candidates = {}
        self._module_facts = None
        return findings
