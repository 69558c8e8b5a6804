"""The name-matched project call graph and its reachability queries.

Second layer of the dataflow pipeline (symbol table → **call graph** →
CFG → solver → rules).  Edges are resolved by *terminal name*: a call
``self._similarities(...)`` inside function F adds an edge from F to
every analyzed function named ``_similarities`` — the same
deliberately conservative contract the RR006 lock-ordering analyzer
pioneered (see :mod:`repro.analysis.symbols` for the generic-name
blocklist that keeps stdlib collisions out).

Name matching over-approximates (one terminal name may hit several
definitions), which is the right direction for the reachability
queries built on it: RR010 asks "could this loop run under
``recommend()``?", and a spurious edge yields at worst a baselined
warning, never a silently missed hot path.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable

from repro.analysis.symbols import FunctionSymbol, SymbolTable

__all__ = ["CallGraph"]


class CallGraph:
    """Directed qualname → qualname edges resolved from a symbol table."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.edges: dict[str, set[str]] = {}
        for qualname, symbol in table.functions.items():
            targets: set[str] = set()
            for callee in symbol.callees:
                targets.update(table.named(callee))
            targets.discard(qualname)
            self.edges[qualname] = targets

    def callees_of(self, qualname: str) -> set[str]:
        """Direct successors of one function."""
        return self.edges.get(qualname, set())

    def roots(
        self, predicate: Callable[[FunctionSymbol], bool]
    ) -> set[str]:
        """Qualnames of every function matching ``predicate``."""
        return {
            qualname
            for qualname, symbol in self.table.functions.items()
            if predicate(symbol)
        }

    def reachable_from(self, roots: Iterable[str]) -> set[str]:
        """Every function reachable from ``roots`` (roots included)."""
        seen: set[str] = set()
        queue: deque[str] = deque()
        for root in roots:
            if root in self.edges and root not in seen:
                seen.add(root)
                queue.append(root)
        while queue:
            current = queue.popleft()
            for target in self.edges.get(current, ()):
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        return seen
