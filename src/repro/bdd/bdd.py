"""A reduced ordered binary decision diagram (ROBDD) manager.

Node references are *signed* integers with complement edges: ``1`` is the
``TRUE`` terminal, ``-1`` is ``FALSE``, structural nodes get ids from
``2`` upward and ``-r`` denotes the negation of ``r``.  Negation is
therefore free — no traversal, no new nodes — and the classic canonical
form keeps structural equality equal to reference equality: the *high*
child of every stored node is a regular (non-complemented) reference, a
complement on the high edge is pushed to the node's own reference.

The manager offers the classical ``ite``-based boolean operations plus
dedicated two-argument ``apply`` operations (AND/XOR with OR, XNOR and
difference derived through complements), existential quantification,
restriction, variable renaming and satisfying-assignment counting —
everything the symbolic reachability engine and the symbolic encoding
tier (:mod:`repro.symbolic`) need, and nothing more.

Operation caches (``ite``, ``apply`` and ``exists``) share one
accounting path (:class:`_OpCache`): each family counts hits, misses and
flushes, :meth:`BDD.cache_stats` aggregates them, and the per-family
counters are published to the :mod:`repro.obs` metrics registry as
``pyetrify_bdd_cache_*``.  With ``max_cache_entries`` set a cache that
grows past the bound is flushed, trading recomputation for memory; the
caches only memoize pure operations, so correctness is unaffected.

Variables vs. levels
--------------------
The public API is *variable-index* based (``var(i)``, ``restrict``,
``support`` …) and stays stable under dynamic reordering: internally
every variable owns a *level* (its position in the current order), and
:meth:`BDD.reorder` moves variables between levels by Rudell-style
sifting of adjacent-level swaps.  A swap rewrites the affected nodes *in
place* — every reference keeps denoting the same boolean function — so
outstanding node references and the operation caches remain valid across
reorders.  ``reorder`` accepts *groups* of variables that must stay
adjacent (the interleaved primed pairs of the relational encoding), which
keeps :meth:`rename` with :func:`prime_map` order-preserving after any
number of reorders.

Relational operations (transition images, the code-equality relation of
the CSC detector) work on *primed pairs* of variables: variable ``i`` of
the unprimed copy lives at index ``2*i`` and its primed twin at
``2*i + 1``.  The interleaving keeps per-pair equality constraints linear
in the number of pairs; :func:`interleaved_pair_levels`,
:func:`prime_map` and :func:`unprime_map` build the bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

Node = int

TRUE: Node = 1
FALSE: Node = -1

#: opcodes of the two-argument apply cache (the key is ``(op, f, g)``)
_OP_AND = 0
_OP_XOR = 1


# ----------------------------------------------------------------------
# interleaved primed-variable helpers
# ----------------------------------------------------------------------
def interleaved_pair_levels(num_pairs: int) -> Tuple[List[int], List[int]]:
    """Levels of the unprimed and primed copies of ``num_pairs`` variables.

    Pair ``i`` occupies levels ``2*i`` (unprimed) and ``2*i + 1``
    (primed); a manager holding both copies needs ``2 * num_pairs``
    variables.  Returns ``(unprimed_levels, primed_levels)``.
    """
    if num_pairs < 0:
        raise ValueError("number of variable pairs must be non-negative")
    return (
        [2 * i for i in range(num_pairs)],
        [2 * i + 1 for i in range(num_pairs)],
    )


def prime_map(num_pairs: int) -> Dict[int, int]:
    """The :meth:`BDD.rename` mapping from unprimed to primed levels."""
    return {2 * i: 2 * i + 1 for i in range(num_pairs)}


def unprime_map(num_pairs: int) -> Dict[int, int]:
    """The :meth:`BDD.rename` mapping from primed to unprimed levels."""
    return {2 * i + 1: 2 * i for i in range(num_pairs)}


class _OpCache:
    """One operation-result cache family with shared accounting.

    A bounded dictionary plus hit/miss/flush counters; every cache of the
    manager (``ite``, ``apply``, ``exists``) goes through this single
    path, and :meth:`publish` forwards counter deltas to the metrics
    registry so repeated publications never double-count.
    """

    __slots__ = (
        "name",
        "data",
        "max_entries",
        "hits",
        "misses",
        "flushes",
        "_pub_hits",
        "_pub_misses",
        "_pub_flushes",
    )

    def __init__(self, name: str, max_entries: Optional[int]) -> None:
        self.name = name
        self.data: Dict[tuple, Node] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        self._pub_hits = 0
        self._pub_misses = 0
        self._pub_flushes = 0

    def get(self, key: tuple) -> Optional[Node]:
        value = self.data.get(key)
        if value is not None:
            self.hits += 1
        else:
            self.misses += 1
        return value

    def put(self, key: tuple, value: Node) -> None:
        if self.max_entries is not None and len(self.data) >= self.max_entries:
            self.data.clear()
            self.flushes += 1
        self.data[key] = value

    def publish(self, hits, misses, flushes, entries) -> None:
        """Push counter deltas to the given metric families."""
        if self.hits != self._pub_hits:
            hits.labels(cache=self.name).inc(self.hits - self._pub_hits)
            self._pub_hits = self.hits
        if self.misses != self._pub_misses:
            misses.labels(cache=self.name).inc(self.misses - self._pub_misses)
            self._pub_misses = self.misses
        if self.flushes != self._pub_flushes:
            flushes.labels(cache=self.name).inc(self.flushes - self._pub_flushes)
            self._pub_flushes = self.flushes
        entries.labels(cache=self.name).set(len(self.data))


_metric_families = None


def _cache_metric_families():
    """The ``pyetrify_bdd_cache_*`` metric families (lazily registered)."""
    global _metric_families
    if _metric_families is None:
        from repro.obs import REGISTRY

        _metric_families = (
            REGISTRY.counter(
                "pyetrify_bdd_cache_hits_total",
                "BDD operation-cache hits, by cache family",
                labelnames=("cache",),
            ),
            REGISTRY.counter(
                "pyetrify_bdd_cache_misses_total",
                "BDD operation-cache misses, by cache family",
                labelnames=("cache",),
            ),
            REGISTRY.counter(
                "pyetrify_bdd_cache_flushes_total",
                "BDD operation-cache bound-triggered flushes, by cache family",
                labelnames=("cache",),
            ),
            REGISTRY.gauge(
                "pyetrify_bdd_cache_entries",
                "Current BDD operation-cache entries, by cache family",
                labelnames=("cache",),
            ),
        )
    return _metric_families


class BDD:
    """A manager for ROBDDs over a fixed set of orderable variables."""

    def __init__(
        self,
        num_vars: int,
        max_cache_entries: Optional[int] = None,
        auto_reorder_threshold: Optional[int] = None,
    ) -> None:
        if num_vars < 0:
            raise ValueError("number of variables must be non-negative")
        if max_cache_entries is not None and max_cache_entries < 1:
            raise ValueError("max_cache_entries must be positive (or None)")
        if auto_reorder_threshold is not None and auto_reorder_threshold < 1:
            raise ValueError("auto_reorder_threshold must be positive (or None)")
        self.num_vars = num_vars
        self.max_cache_entries = max_cache_entries
        self.auto_reorder_threshold = auto_reorder_threshold
        # node id -> (var, low, high); slots 0 and 1 are reserved so the
        # terminals TRUE=1 / FALSE=-1 never collide with a structural id.
        self._nodes: List[Optional[Tuple[int, Node, Node]]] = [None, None]
        # one unique table per variable: (low, high) -> node id.  The
        # split (instead of one global table) is what lets an
        # adjacent-level swap enumerate exactly the nodes of one level.
        self._unique: List[Dict[Tuple[Node, Node], Node]] = [
            {} for _ in range(num_vars)
        ]
        self._var2level: List[int] = list(range(num_vars))
        self._level2var: List[int] = list(range(num_vars))
        self._ite_cache = _OpCache("ite", max_cache_entries)
        self._apply_cache = _OpCache("apply", max_cache_entries)
        self._exists_cache = _OpCache("exists", max_cache_entries)
        self._reorders = 0
        self._next_reorder = auto_reorder_threshold or 0

    # ------------------------------------------------------------------
    # node handling
    # ------------------------------------------------------------------
    def make_node(self, var: int, low: Node, high: Node) -> Node:
        """The node ``var ? high : low``, interned.

        ``var`` must sit above the top levels of both children in the
        current order; the complement of a negative high child moves to
        the returned reference.
        """
        if low == high:
            return low
        negate = high < 0
        if negate:
            low = -low
            high = -high
        table = self._unique[var]
        key = (low, high)
        node = table.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append((var, low, high))
            table[key] = node
        return -node if negate else node

    def level(self, node: Node) -> int:
        """The *variable index* labelling ``node`` (``num_vars`` for
        terminals).  Kept under its historical name: before dynamic
        reordering variable indexes and levels coincided, and all
        call sites use it as a variable index."""
        if node == TRUE or node == FALSE:
            return self.num_vars
        return self._nodes[node if node > 0 else -node][0]

    def low(self, node: Node) -> Node:
        entry = self._nodes[node if node > 0 else -node]
        return entry[1] if node > 0 else -entry[1]

    def high(self, node: Node) -> Node:
        entry = self._nodes[node if node > 0 else -node]
        return entry[2] if node > 0 else -entry[2]

    def var_order(self) -> List[int]:
        """Variable indexes from the top level to the bottom level."""
        return list(self._level2var)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def cofactors(self, node: Node, var: int) -> Tuple[Node, Node]:
        """Both cofactors of ``node`` with respect to ``var`` (which must
        be at or above ``node``'s top level)."""
        if node == TRUE or node == FALSE:
            return node, node
        entry = self._nodes[node if node > 0 else -node]
        if entry[0] != var:
            return node, node
        if node < 0:
            return -entry[1], -entry[2]
        return entry[1], entry[2]

    def _top_var(self, *nodes: Node) -> int:
        """The variable at the shallowest level among ``nodes``."""
        v2l = self._var2level
        best_level = self.num_vars
        best_var = -1
        for node in nodes:
            if node == TRUE or node == FALSE:
                continue
            var = self._nodes[node if node > 0 else -node][0]
            level = v2l[var]
            if level < best_level:
                best_level = level
                best_var = var
        return best_var

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @property
    def true(self) -> Node:
        return TRUE

    @property
    def false(self) -> Node:
        return FALSE

    def var(self, index: int) -> Node:
        """The function of a single positive literal."""
        if not 0 <= index < self.num_vars:
            raise IndexError(f"variable index {index} out of range")
        return self.make_node(index, FALSE, TRUE)

    def nvar(self, index: int) -> Node:
        """The function of a single negative literal."""
        if not 0 <= index < self.num_vars:
            raise IndexError(f"variable index {index} out of range")
        return -self.var(index)

    def cube(self, assignment: Dict[int, int]) -> Node:
        """Conjunction of literals given as ``{variable_index: 0/1}``."""
        result = TRUE
        v2l = self._var2level
        for index in sorted(assignment, key=v2l.__getitem__, reverse=True):
            if not 0 <= index < self.num_vars:
                raise IndexError(f"variable index {index} out of range")
            if assignment[index]:
                result = self.make_node(index, FALSE, result)
            else:
                result = self.make_node(index, result, FALSE)
        return result

    # ------------------------------------------------------------------
    # core ite and apply
    # ------------------------------------------------------------------
    def ite(self, condition: Node, then_part: Node, else_part: Node) -> Node:
        """If-then-else: ``condition ? then_part : else_part``."""
        if condition == TRUE:
            return then_part
        if condition == FALSE:
            return else_part
        if then_part == else_part:
            return then_part
        if then_part == condition:
            then_part = TRUE
        elif then_part == -condition:
            then_part = FALSE
        if else_part == condition:
            else_part = FALSE
        elif else_part == -condition:
            else_part = TRUE
        if then_part == else_part:
            return then_part
        if then_part == TRUE and else_part == FALSE:
            return condition
        if then_part == FALSE and else_part == TRUE:
            return -condition
        # canonical polarity: regular condition, regular then-part (the
        # complement of the then-part rides on the result's sign)
        if condition < 0:
            condition = -condition
            then_part, else_part = else_part, then_part
        sign = 1
        if then_part < 0:
            sign = -1
            then_part = -then_part
            else_part = -else_part
        key = (condition, then_part, else_part)
        cache = self._ite_cache
        result = cache.get(key)
        if result is None:
            var = self._top_var(condition, then_part, else_part)
            clo, chi = self.cofactors(condition, var)
            tlo, thi = self.cofactors(then_part, var)
            elo, ehi = self.cofactors(else_part, var)
            result = self.make_node(
                var, self.ite(clo, tlo, elo), self.ite(chi, thi, ehi)
            )
            cache.put(key, result)
        return result if sign > 0 else -result

    def apply_and(self, first: Node, second: Node) -> Node:
        # the recursion is the hottest loop of the symbolic tier, so the
        # cache accesses, cofactor steps and node interning are inlined
        # (no _OpCache.get/put or cofactors/make_node call frames)
        if first == second:
            return first
        if first == TRUE:
            return second
        if second == TRUE:
            return first
        if first == FALSE or second == FALSE or first == -second:
            return FALSE
        if second < first:
            first, second = second, first
        key = (_OP_AND, first, second)
        cache = self._apply_cache
        result = cache.data.get(key)
        if result is not None:
            cache.hits += 1
            return result
        cache.misses += 1
        nodes = self._nodes
        v2l = self._var2level
        fvar, flo, fhi = nodes[first if first > 0 else -first]
        if first < 0:
            flo = -flo
            fhi = -fhi
        svar, slo, shi = nodes[second if second > 0 else -second]
        if second < 0:
            slo = -slo
            shi = -shi
        flevel = v2l[fvar]
        slevel = v2l[svar]
        if flevel < slevel:
            var = fvar
            slo = shi = second
        elif slevel < flevel:
            var = svar
            flo = fhi = first
        else:
            var = fvar
        # terminal prechecks before recursing: over a third of the calls
        # would otherwise be frames that return immediately
        if flo == slo or slo == TRUE:
            low = flo
        elif flo == TRUE:
            low = slo
        elif flo == FALSE or slo == FALSE or flo == -slo:
            low = FALSE
        else:
            low = self.apply_and(flo, slo)
        if fhi == shi or shi == TRUE:
            high = fhi
        elif fhi == TRUE:
            high = shi
        elif fhi == FALSE or shi == FALSE or fhi == -shi:
            high = FALSE
        else:
            high = self.apply_and(fhi, shi)
        if low == high:
            result = low
        else:
            negate = high < 0
            if negate:
                low = -low
                high = -high
            table = self._unique[var]
            node_key = (low, high)
            node = table.get(node_key)
            if node is None:
                node = len(nodes)
                nodes.append((var, low, high))
                table[node_key] = node
            result = -node if negate else node
        if cache.max_entries is not None and len(cache.data) >= cache.max_entries:
            cache.data.clear()
            cache.flushes += 1
        cache.data[key] = result
        return result

    def apply_xor(self, first: Node, second: Node) -> Node:
        if first == second:
            return FALSE
        if first == -second:
            return TRUE
        if first == TRUE:
            return -second
        if first == FALSE:
            return second
        if second == TRUE:
            return -first
        if second == FALSE:
            return first
        # xor(¬f, g) = ¬xor(f, g): strip both signs into the result sign
        sign = 1
        if first < 0:
            sign = -sign
            first = -first
        if second < 0:
            sign = -sign
            second = -second
        if second < first:
            first, second = second, first
        key = (_OP_XOR, first, second)
        cache = self._apply_cache
        result = cache.data.get(key)
        if result is not None:
            cache.hits += 1
            return result if sign > 0 else -result
        cache.misses += 1
        nodes = self._nodes
        v2l = self._var2level
        fvar, flo, fhi = nodes[first]
        svar, slo, shi = nodes[second]
        flevel = v2l[fvar]
        slevel = v2l[svar]
        if flevel < slevel:
            var = fvar
            slo = shi = second
        elif slevel < flevel:
            var = svar
            flo = fhi = first
        else:
            var = fvar
        low = self.apply_xor(flo, slo)
        high = self.apply_xor(fhi, shi)
        if low == high:
            result = low
        else:
            negate = high < 0
            if negate:
                low = -low
                high = -high
            table = self._unique[var]
            node_key = (low, high)
            node = table.get(node_key)
            if node is None:
                node = len(nodes)
                nodes.append((var, low, high))
                table[node_key] = node
            result = -node if negate else node
        if cache.max_entries is not None and len(cache.data) >= cache.max_entries:
            cache.data.clear()
            cache.flushes += 1
        cache.data[key] = result
        return result if sign > 0 else -result

    # ------------------------------------------------------------------
    # derived operations (free through complement edges)
    # ------------------------------------------------------------------
    def apply_not(self, node: Node) -> Node:
        return -node

    def apply_or(self, first: Node, second: Node) -> Node:
        return -self.apply_and(-first, -second)

    def apply_eq(self, first: Node, second: Node) -> Node:
        """Biconditional ``first <-> second`` (XNOR)."""
        return -self.apply_xor(first, second)

    def apply_diff(self, first: Node, second: Node) -> Node:
        """``first AND NOT second``."""
        return self.apply_and(first, -second)

    def conjoin(self, nodes: Iterable[Node]) -> Node:
        result = TRUE
        for node in nodes:
            result = self.apply_and(result, node)
            if result == FALSE:
                break
        return result

    def disjoin(self, nodes: Iterable[Node]) -> Node:
        """The disjunction of ``nodes``, OR-ed in pairs round by round: each
        OR meets operands of like size, where a running OR meets the
        growing result once per operand."""
        layer = list(nodes)
        while len(layer) > 1:
            layer = [
                self.apply_or(layer[i], layer[i + 1]) if i + 1 < len(layer) else layer[i]
                for i in range(0, len(layer), 2)
            ]
        return layer[0] if layer else FALSE

    # ------------------------------------------------------------------
    # quantification and restriction
    # ------------------------------------------------------------------
    def restrict(self, node: Node, index: int, value: int) -> Node:
        """Fix one variable of ``node`` to a constant."""
        if not 0 <= index < self.num_vars:
            raise IndexError(f"variable index {index} out of range")
        target_level = self._var2level[index]
        v2l = self._var2level
        nodes = self._nodes
        memo: Dict[Node, Node] = {}

        def walk(current: Node) -> Node:
            # restriction commutes with complement: recurse regular
            if current == TRUE or current == FALSE:
                return current
            if current < 0:
                return -walk(-current)
            found = memo.get(current)
            if found is not None:
                return found
            var, low, high = nodes[current]
            if v2l[var] > target_level:
                result = current
            elif var == index:
                result = high if value else low
            else:
                result = self.make_node(var, walk(low), walk(high))
            memo[current] = result
            return result

        return walk(node)

    def exists(self, node: Node, variables: Sequence[int]) -> Node:
        """Existentially quantify ``variables`` out of ``node``."""
        v2l = self._var2level
        var_tuple = tuple(sorted(set(variables), key=v2l.__getitem__))
        if not var_tuple or node == TRUE or node == FALSE:
            return node
        return self._exists(node, var_tuple)

    def _exists(self, node: Node, var_tuple: Tuple[int, ...]) -> Node:
        # ``var_tuple`` arrives sorted by current level (the public
        # wrapper guarantees it), so pruning already-passed variables is
        # a slice, and the node's own variable is quantified iff it is
        # the first survivor; like apply_and, the cache and unique-table
        # accesses are inlined because this sits on the image hot path
        if node == TRUE or node == FALSE:
            return node
        key = (node, var_tuple)
        cache = self._exists_cache
        result = cache.data.get(key)
        if result is not None:
            cache.hits += 1
            return result
        cache.misses += 1
        nodes = self._nodes
        v2l = self._var2level
        entry = nodes[node if node > 0 else -node]
        var = entry[0]
        level = v2l[var]
        cut = 0
        count = len(var_tuple)
        while cut < count and v2l[var_tuple[cut]] < level:
            cut += 1
        if cut == count:
            result = node
        else:
            remaining = var_tuple if cut == 0 else var_tuple[cut:]
            if node < 0:
                low, high = -entry[1], -entry[2]
            else:
                low, high = entry[1], entry[2]
            low = self._exists(low, remaining)
            high = self._exists(high, remaining)
            if var_tuple[cut] == var:
                # inline OR terminals (De Morgan over apply_and)
                if low == high or high == FALSE:
                    result = low
                elif low == FALSE:
                    result = high
                elif low == TRUE or high == TRUE or low == -high:
                    result = TRUE
                else:
                    result = -self.apply_and(-low, -high)
            elif low == high:
                result = low
            else:
                negate = high < 0
                if negate:
                    low = -low
                    high = -high
                table = self._unique[var]
                node_key = (low, high)
                interned = table.get(node_key)
                if interned is None:
                    interned = len(nodes)
                    nodes.append((var, low, high))
                    table[node_key] = interned
                result = -interned if negate else interned
        if cache.max_entries is not None and len(cache.data) >= cache.max_entries:
            cache.data.clear()
            cache.flushes += 1
        cache.data[key] = result
        return result

    def and_exists(self, first: Node, second: Node, variables: Sequence[int]) -> Node:
        """``∃ variables . (first ∧ second)`` without building the conjunction.

        The relational-product operation of symbolic reachability: image
        steps conjoin the reached set with a transition predicate only
        to quantify the changed variables straight back out, and fusing
        the two skips the intermediate conjunction BDD entirely.  Shares
        the exists cache (keys are 3-tuples, so they cannot collide with
        the 2-tuple plain-exists keys).
        """
        v2l = self._var2level
        var_tuple = tuple(sorted(set(variables), key=v2l.__getitem__))
        if not var_tuple:
            return self.apply_and(first, second)
        return self._and_exists(first, second, var_tuple)

    def _and_exists(
        self, first: Node, second: Node, var_tuple: Tuple[int, ...]
    ) -> Node:
        if first == FALSE or second == FALSE or first == -second:
            return FALSE
        if first == TRUE:
            return TRUE if second == TRUE else self._exists(second, var_tuple)
        if second == TRUE or first == second:
            return self._exists(first, var_tuple)
        if second < first:
            first, second = second, first
        key = (first, second, var_tuple)
        cache = self._exists_cache
        result = cache.data.get(key)
        if result is not None:
            cache.hits += 1
            return result
        cache.misses += 1
        nodes = self._nodes
        v2l = self._var2level
        fvar, flo, fhi = nodes[first if first > 0 else -first]
        if first < 0:
            flo = -flo
            fhi = -fhi
        svar, slo, shi = nodes[second if second > 0 else -second]
        if second < 0:
            slo = -slo
            shi = -shi
        flevel = v2l[fvar]
        slevel = v2l[svar]
        if flevel < slevel:
            var = fvar
            level = flevel
            slo = shi = second
        elif slevel < flevel:
            var = svar
            level = slevel
            flo = fhi = first
        else:
            var = fvar
            level = flevel
        cut = 0
        count = len(var_tuple)
        while cut < count and v2l[var_tuple[cut]] < level:
            cut += 1
        if cut == count:
            result = self.apply_and(first, second)
        else:
            remaining = var_tuple if cut == 0 else var_tuple[cut:]
            if var_tuple[cut] == var:
                # the top variable is quantified: result is the OR of the
                # two cofactor products, with an early exit on TRUE
                low = self._and_exists(flo, slo, remaining)
                if low == TRUE:
                    result = TRUE
                else:
                    high = self._and_exists(fhi, shi, remaining)
                    if low == high or high == FALSE:
                        result = low
                    elif low == FALSE:
                        result = high
                    elif high == TRUE or low == -high:
                        result = TRUE
                    else:
                        result = -self.apply_and(-low, -high)
            else:
                low = self._and_exists(flo, slo, remaining)
                high = self._and_exists(fhi, shi, remaining)
                if low == high:
                    result = low
                else:
                    negate = high < 0
                    if negate:
                        low = -low
                        high = -high
                    table = self._unique[var]
                    node_key = (low, high)
                    interned = table.get(node_key)
                    if interned is None:
                        interned = len(nodes)
                        nodes.append((var, low, high))
                        table[node_key] = interned
                    result = -interned if negate else interned
        if cache.max_entries is not None and len(cache.data) >= cache.max_entries:
            cache.data.clear()
            cache.flushes += 1
        cache.data[key] = result
        return result

    # ------------------------------------------------------------------
    # cache accounting
    # ------------------------------------------------------------------
    def _cache_families(self) -> Tuple[_OpCache, ...]:
        return (self._ite_cache, self._apply_cache, self._exists_cache)

    def publish_metrics(self) -> None:
        """Forward cache-family counter deltas to the metrics registry."""
        hits, misses, flushes, entries = _cache_metric_families()
        for family in self._cache_families():
            family.publish(hits, misses, flushes, entries)

    def cache_stats(self) -> Dict[str, object]:
        """Hit/miss/flush counters and current sizes of the operation caches."""
        families = self._cache_families()
        hits = sum(f.hits for f in families)
        misses = sum(f.misses for f in families)
        flushes = sum(f.flushes for f in families)
        total = hits + misses
        self.publish_metrics()
        return {
            "hits": hits,
            "misses": misses,
            "flushes": flushes,
            "hit_rate": round(hits / total, 4) if total else 0.0,
            "ite_entries": len(self._ite_cache.data),
            "apply_entries": len(self._apply_cache.data),
            "exists_entries": len(self._exists_cache.data),
            "max_cache_entries": self.max_cache_entries,
            "nodes": self.num_nodes,
            "reorders": self._reorders,
            "families": {
                f.name: {"hits": f.hits, "misses": f.misses, "flushes": f.flushes}
                for f in families
            },
        }

    def rename(self, node: Node, mapping: Dict[int, int]) -> Node:
        """Substitute variables by variables (``{old_index: new_index}``).

        The mapping must preserve the *current level order* on the
        support of ``node`` (old variables at strictly increasing levels
        map to new variables at strictly increasing levels), which makes
        the substitution a single structural walk — exactly the shape of
        priming/unpriming one copy of an interleaved relational encoding
        (:func:`prime_map` / :func:`unprime_map`; grouped reordering
        keeps each pair adjacent, so the maps stay order-preserving after
        :meth:`reorder`).  Raises :class:`ValueError` for mappings that
        would reorder the support.
        """
        v2l = self._var2level
        support = sorted(self.support(node), key=v2l.__getitem__)
        images = []
        for old in support:
            new = mapping.get(old, old)
            if not 0 <= new < self.num_vars:
                raise ValueError(f"rename target {new} out of range")
            images.append(new)
        if any(v2l[b] <= v2l[a] for a, b in zip(images, images[1:])):
            raise ValueError(
                "rename mapping must preserve the variable order on the support"
            )
        nodes = self._nodes
        memo: Dict[Node, Node] = {}

        def walk(current: Node) -> Node:
            if current == TRUE or current == FALSE:
                return current
            if current < 0:
                return -walk(-current)
            found = memo.get(current)
            if found is not None:
                return found
            var, low, high = nodes[current]
            result = self.make_node(mapping.get(var, var), walk(low), walk(high))
            memo[current] = result
            return result

        return walk(node)

    # ------------------------------------------------------------------
    # dynamic reordering (sifting)
    # ------------------------------------------------------------------
    def _swap_adjacent(self, level: int) -> None:
        """Swap the variables at ``level`` and ``level + 1`` in place.

        Nodes labelled with the upper variable that depend on the lower
        one are rewritten (same id, same function, new label/children),
        so all outstanding references and cache entries stay valid.  The
        canonical form survives: the new high child is built from the
        old high child's high cofactor, which is regular by induction.
        """
        upper = self._level2var[level]
        lower = self._level2var[level + 1]
        nodes = self._nodes
        upper_table = self._unique[upper]
        rewrite = []
        for (low, high), nid in upper_table.items():
            ln = low if low > 0 else -low
            if ln >= 2 and nodes[ln][0] == lower:
                rewrite.append((nid, low, high))
                continue
            if high >= 2 and nodes[high][0] == lower:
                rewrite.append((nid, low, high))
        for nid, low, high in rewrite:
            del upper_table[(low, high)]
        # flip the level maps first so make_node interns the fresh
        # children under the post-swap order
        self._level2var[level] = lower
        self._level2var[level + 1] = upper
        self._var2level[upper] = level + 1
        self._var2level[lower] = level
        lower_table = self._unique[lower]
        for nid, low, high in rewrite:
            f00, f01 = self.cofactors(low, lower)
            f10, f11 = self.cofactors(high, lower)
            new_low = self.make_node(upper, f00, f10)
            new_high = self.make_node(upper, f01, f11)
            # new_high is regular: f11 is the high cofactor of the
            # regular canonical node `high`, hence itself regular
            nodes[nid] = (lower, new_low, new_high)
            lower_table[(new_low, new_high)] = nid

    def _table_size(self) -> int:
        return sum(len(table) for table in self._unique)

    def _swap_blocks_at(self, blocks: List[List[int]], index: int) -> None:
        """Swap adjacent variable blocks ``index`` and ``index + 1``."""
        start = sum(len(block) for block in blocks[:index])
        a = len(blocks[index])
        b = len(blocks[index + 1])
        for i in range(a):
            base = start + a - 1 - i
            for j in range(b):
                self._swap_adjacent(base + j)
        blocks[index], blocks[index + 1] = blocks[index + 1], blocks[index]

    def _sift_block(
        self,
        blocks: List[List[int]],
        index: int,
        max_growth: float,
        window: Optional[int] = None,
    ) -> None:
        """Move one block through the allowed positions, settle at the best.

        ``window`` caps how far (in block positions) the walk strays from
        the starting position; swaps cannot reclaim the nodes they
        orphan, so unbounded walks on a large manager inflate the table
        faster than sifting shrinks it.
        """
        low_limit = 0 if window is None else max(0, index - window)
        high_limit = (
            len(blocks) - 1 if window is None else min(len(blocks) - 1, index + window)
        )
        best_size = self._table_size()
        best_pos = index
        pos = index
        while pos < high_limit:
            self._swap_blocks_at(blocks, pos)
            pos += 1
            size = self._table_size()
            if size < best_size:
                best_size, best_pos = size, pos
            elif size > max_growth * best_size:
                break
        while pos > low_limit:
            self._swap_blocks_at(blocks, pos - 1)
            pos -= 1
            size = self._table_size()
            if size < best_size:
                best_size, best_pos = size, pos
            elif pos <= best_pos and size > max_growth * best_size:
                break
        while pos < best_pos:
            self._swap_blocks_at(blocks, pos)
            pos += 1
        while pos > best_pos:
            self._swap_blocks_at(blocks, pos - 1)
            pos -= 1

    def _build_blocks(
        self, groups: Optional[Iterable[Sequence[int]]]
    ) -> List[List[int]]:
        """Partition the levels into sift blocks honouring ``groups``.

        Every group must currently occupy adjacent levels; ungrouped
        variables become singleton blocks.  Blocks are returned in level
        order, each block's variables in level order.
        """
        owner: Dict[int, int] = {}
        group_list: List[List[int]] = []
        for group in groups or ():
            members = list(group)
            for var in members:
                if not 0 <= var < self.num_vars:
                    raise ValueError(f"reorder group variable {var} out of range")
                if var in owner:
                    raise ValueError(f"variable {var} appears in two reorder groups")
                owner[var] = len(group_list)
            group_list.append(members)
        blocks: List[List[int]] = []
        level = 0
        while level < self.num_vars:
            var = self._level2var[level]
            group_index = owner.get(var)
            if group_index is None:
                blocks.append([var])
                level += 1
                continue
            members = group_list[group_index]
            span_vars = [self._level2var[level + k] for k in range(len(members))]
            if set(span_vars) != set(members):
                raise ValueError(
                    "reorder groups must occupy adjacent levels "
                    f"(group {sorted(members)} is split in the current order)"
                )
            blocks.append(span_vars)
            level += len(members)
        return blocks

    def reorder(
        self,
        groups: Optional[Iterable[Sequence[int]]] = None,
        max_growth: float = 1.2,
        max_blocks: Optional[int] = None,
        window: Optional[int] = None,
    ) -> int:
        """Sift variables (or adjacent *groups*) to shrink the node table.

        Classic Rudell sifting: each block — heaviest unique table first —
        walks through the level positions via adjacent swaps and settles
        where the total table is smallest; a walk aborts early once the
        table grows past ``max_growth`` times the best size seen.
        ``max_blocks`` sifts only the heaviest blocks and ``window``
        bounds each walk's distance — the bounds :meth:`maybe_reorder`
        uses, because in-place swaps cannot reclaim the nodes they orphan
        and an unbounded sift of a large manager costs more than it
        recovers.  Node references stay valid (swaps rewrite in place),
        so this is safe at any quiescent point; the symbolic engine calls
        it once its reachable set is saturated.  Returns the table-size delta
        (negative means the table shrank).
        """
        from repro.obs import span

        before = self._table_size()
        blocks = self._build_blocks(groups)
        if len(blocks) < 2:
            return 0
        with span("bdd.reorder", blocks=len(blocks), before=before):
            weights = {
                id(block): sum(len(self._unique[var]) for var in block)
                for block in blocks
            }
            candidates = sorted(list(blocks), key=lambda b: -weights[id(b)])
            if max_blocks is not None:
                candidates = candidates[:max_blocks]
            for block in candidates:
                self._sift_block(blocks, blocks.index(block), max_growth, window)
            self._reorders += 1
        return self._table_size() - before

    def maybe_reorder(self, groups: Optional[Iterable[Sequence[int]]] = None) -> bool:
        """Reorder if the node table outgrew the auto-reorder threshold.

        Returns ``True`` when a reorder ran.  Disabled (always ``False``)
        unless the manager was built with ``auto_reorder_threshold``;
        after each run the trigger doubles with the surviving table so a
        steadily growing computation reorders O(log n) times.
        """
        if self.auto_reorder_threshold is None:
            return False
        if self.num_nodes < self._next_reorder:
            return False
        self.reorder(groups=groups, max_growth=1.05, max_blocks=8, window=4)
        self._next_reorder = max(self.auto_reorder_threshold, 2 * self.num_nodes)
        return True

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def support(self, node: Node) -> Set[int]:
        """The set of variable indexes ``node`` actually depends on."""
        seen: Set[Node] = set()
        variables: Set[int] = set()
        stack = [node if node > 0 else -node]
        nodes = self._nodes
        while stack:
            current = stack.pop()
            if current == 1 or current in seen:
                continue
            seen.add(current)
            var, low, high = nodes[current]
            variables.add(var)
            stack.append(low if low > 0 else -low)
            stack.append(high)
        return variables

    def evaluate(self, node: Node, assignment: Sequence[int]) -> int:
        """Evaluate the function under a full assignment (list of 0/1,
        indexed by variable index)."""
        current = node
        nodes = self._nodes
        while current != TRUE and current != FALSE:
            negate = current < 0
            var, low, high = nodes[-current if negate else current]
            child = high if assignment[var] else low
            current = -child if negate else child
        return 1 if current == TRUE else 0

    def count_solutions(self, node: Node) -> int:
        """Number of satisfying assignments over all ``num_vars`` variables."""
        return self.sat_count(node, range(self.num_vars))

    def sat_count(self, node: Node, variables: Sequence[int]) -> int:
        """Satisfying assignments of ``node`` over exactly ``variables``.

        Unlike :meth:`count_solutions` (which counts over all
        ``num_vars`` variables), this counts assignments to the given
        variable set only — the right notion when a manager holds both
        state variables and their primed twins but the counted function
        ranges over one copy.  Raises :class:`ValueError` when ``node``
        depends on a variable outside the set.  The count is invariant
        under :meth:`reorder` — positions follow the current level order.
        """
        v2l = self._var2level
        ordered = sorted(set(variables), key=v2l.__getitem__)
        position = {var: i for i, var in enumerate(ordered)}
        total = len(ordered)
        nodes = self._nodes
        cache: Dict[Node, int] = {}

        def pos_of(current: Node) -> int:
            if current == TRUE or current == FALSE:
                return total
            var = nodes[current if current > 0 else -current][0]
            found = position.get(var)
            if found is None:
                raise ValueError(
                    f"function depends on variable {var}, which is not in the "
                    "counted set"
                )
            return found

        def count_at(current: Node) -> int:
            """Assignments of the variables at/below ``current``'s position."""
            if current == TRUE:
                return 1
            if current == FALSE:
                return 0
            if current < 0:
                return (1 << (total - pos_of(current))) - count_at(-current)
            found = cache.get(current)
            if found is not None:
                return found
            here = pos_of(current)
            _, low, high = nodes[current]
            result = (count_at(low) << (pos_of(low) - here - 1)) + (
                count_at(high) << (pos_of(high) - here - 1)
            )
            cache[current] = result
            return result

        if node == FALSE:
            return 0
        return count_at(node) << pos_of(node)

    def pick_cube(self, node: Node) -> Optional[Dict[int, int]]:
        """One satisfying partial assignment as ``{variable_index: 0/1}``.

        Deterministic (prefers the 0-branch at every node); variables the
        chosen path does not constrain are absent from the cube.  Returns
        ``None`` when the function is unsatisfiable.
        """
        if node == FALSE:
            return None
        cube: Dict[int, int] = {}
        current = node
        nodes = self._nodes
        while current != TRUE:
            negate = current < 0
            var, low, high = nodes[-current if negate else current]
            if negate:
                low, high = -low, -high
            if low != FALSE:
                cube[var] = 0
                current = low
            else:
                cube[var] = 1
                current = high
        return cube

    def satisfying_assignments(self, node: Node, limit: Optional[int] = None):
        """Yield satisfying assignments as tuples of 0/1 indexed by
        variable index (testing helper).  Enumeration follows the current
        level order, 0-branch first."""
        produced = 0
        values = [0] * self.num_vars

        def walk(current: Node, level: int):
            nonlocal produced
            if limit is not None and produced >= limit:
                return
            if current == FALSE:
                return
            if level == self.num_vars:
                produced += 1
                yield tuple(values)
                return
            var = self._level2var[level]
            lo, hi = self.cofactors(current, var)
            for value, child in ((0, lo), (1, hi)):
                values[var] = value
                yield from walk(child, level + 1)

        yield from walk(node, 0)
