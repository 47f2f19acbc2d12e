"""Document Type Definitions (paper Section 2).

A DTD is a function ``D`` mapping every symbol ``a ∈ Σ`` to an automaton
``D(a)`` describing the allowed children sequences of an ``a``-labelled
node. Following the paper:

* symbols without an explicit rule default to ``a → ε`` (childless);
* ``L(D)`` is the set of *nonempty* trees whose every node's children
  word is accepted — there is **no root-label requirement**, so tree
  *fragments* can be checked against the same DTD (the paper drops the
  root label deliberately; :meth:`DTD.with_root` adds it back for users
  who want classic DTD semantics);
* only *satisfiable* DTDs are allowed: every symbol must admit at least
  one finite tree. The constructor verifies this (polynomial time) and
  raises :class:`UnsatisfiableDTDError` otherwise.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from ..automata import NFA, Regex, glushkov, nfa_to_regex, parse_regex
from ..errors import DTDError, UnknownLabelError, UnsatisfiableDTDError
from ..xmltree import NodeId, Tree

__all__ = ["DTD", "LabelTable", "ValidationViolation"]

Row = TypeVar("Row")


class LabelTable(Mapping[str, Row]):
    """A read-only table with one row per symbol of an alphabet, each
    row derived by *derive* on its first lookup and kept.

    Iteration (in sorted order) and ``len`` cover the whole alphabet, so
    iterating derives every row; a symbol outside it raises
    :class:`KeyError`. Two threads that race on a row may both derive
    it, but the first to publish wins (``setdefault``): every reader
    sees one object per symbol.
    """

    __slots__ = ("_alphabet", "_derive", "_rows")

    def __init__(self, alphabet: frozenset[str], derive: Callable[[str], Row]) -> None:
        self._alphabet = alphabet
        self._derive = derive
        self._rows: dict[str, Row] = {}

    def __getitem__(self, symbol: str) -> Row:
        row = self._rows.get(symbol)
        if row is None:
            if symbol not in self._alphabet:
                raise KeyError(symbol)
            row = self._rows.setdefault(symbol, self._derive(symbol))
        return row

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._alphabet))

    def __len__(self) -> int:
        return len(self._alphabet)

    @property
    def held(self) -> frozenset[str]:
        """The symbols whose row has been derived so far."""
        return frozenset(self._rows)


class ValidationViolation:
    """One node whose children word violates its content model."""

    __slots__ = ("node", "label", "word")

    def __init__(self, node: NodeId, label: str, word: tuple[str, ...]) -> None:
        self.node = node
        self.label = label
        self.word = word

    def __repr__(self) -> str:
        word = " ".join(self.word) if self.word else "ε"
        return f"<node {self.node!r} ({self.label}): children {word!r} rejected>"


class DTD:
    """A satisfiable DTD over an explicit alphabet.

    Parameters
    ----------
    rules:
        Mapping from symbol to content model. A model may be a regex
        string (DTD syntax, e.g. ``"(a,(b|c),d)*"``), a parsed
        :class:`Regex`, or an :class:`NFA` (used for derived DTDs such as
        view DTDs). Symbols not mapped default to ``ε``.
    alphabet:
        Extra symbols beyond those appearing in the rules.
    check:
        Verify satisfiability (on by default; disable only when the DTD
        is known-satisfiable, e.g. round-tripped).
    """

    def __init__(
        self,
        rules: Mapping[str, "str | Regex | NFA"],
        *,
        alphabet: Iterable[str] = (),
        check: bool = True,
    ) -> None:
        self._regexes: dict[str, Regex] = {}
        models: dict[str, NFA] = {}
        for symbol, rule in rules.items():
            if isinstance(rule, str):
                rule = parse_regex(rule)
            if isinstance(rule, Regex):
                self._regexes[symbol] = rule
                models[symbol] = glushkov(rule)
            elif isinstance(rule, NFA):
                models[symbol] = rule
            else:
                raise DTDError(f"unsupported rule type for {symbol!r}: {type(rule)}")
        symbols: set[str] = set(alphabet) | set(models)
        for model in models.values():
            symbols |= model.alphabet
        self._alphabet = frozenset(symbols)
        unknown = {
            sym for model in models.values() for sym in model.alphabet
        } - self._alphabet
        if unknown:
            raise DTDError(f"content models mention unknown symbols {unknown}")
        epsilon = NFA.empty_word_automaton(self._alphabet)
        self._init_models(
            {
                symbol: models.get(symbol, epsilon).with_alphabet(self._alphabet)
                for symbol in self._alphabet
            }
        )
        if check:
            self.assert_satisfiable()

    @classmethod
    def derived(cls, alphabet: Iterable[str], rule: Callable[[str], NFA]) -> "DTD":
        """The DTD over *alphabet* whose automaton for a symbol is
        ``rule(symbol)``, derived on the symbol's first lookup (how
        :func:`repro.dtd.view_dtd` builds the view DTD).

        Every rule must read symbols of *alphabet* only, and the DTD
        must be satisfiable: neither is checked, since checking would
        derive every rule. Readers of the whole DTD (:attr:`size`,
        :meth:`rules`, :meth:`describe`, :meth:`satisfiable_symbols`)
        derive every rule.
        """
        symbols = frozenset(alphabet)
        dtd = cls.__new__(cls)
        dtd._regexes = {}
        dtd._alphabet = symbols
        dtd._init_models(
            LabelTable(symbols, lambda symbol: rule(symbol).with_alphabet(symbols))
        )
        return dtd

    def _init_models(self, models: Mapping[str, NFA]) -> None:
        self._models = models
        # memo slots for derived artifacts (a DTD is immutable once built,
        # so these are filled at most once): the sorted alphabet, the
        # satisfiability fixpoint, the minimal-size table maintained by
        # :func:`repro.dtd.minimal.minimal_sizes`, and the canonical rule
        # digest maintained by :func:`repro.registry.schema_fingerprint`.
        self._sorted_alphabet: tuple[str, ...] | None = None
        self._satisfiable: frozenset[str] | None = None
        self._minimal_sizes: dict[str, int] | None = None
        self._canonical_digest: str | None = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def alphabet(self) -> frozenset[str]:
        """Σ — every known symbol."""
        return self._alphabet

    @property
    def sorted_alphabet(self) -> tuple[str, ...]:
        """Σ in sorted order, computed once (hot loops iterate this)."""
        if self._sorted_alphabet is None:
            self._sorted_alphabet = tuple(sorted(self._alphabet))
        return self._sorted_alphabet

    def automaton(self, symbol: str) -> NFA:
        """``D(symbol)`` — the content-model automaton."""
        try:
            return self._models[symbol]
        except KeyError:
            raise UnknownLabelError(symbol) from None

    def rule_regex(self, symbol: str) -> Regex:
        """A regex for ``L(D(symbol))``.

        Returns the original expression when the rule was given as one,
        otherwise derives an expression by state elimination (derived
        DTDs, e.g. view DTDs, are automaton-backed).
        """
        if symbol in self._regexes:
            return self._regexes[symbol]
        regex = nfa_to_regex(self.automaton(symbol))
        self._regexes[symbol] = regex
        return regex

    def has_explicit_rule(self, symbol: str) -> bool:
        """Whether *symbol* has a rule other than the implicit ``a → ε``."""
        if symbol not in self._alphabet:
            raise UnknownLabelError(symbol)
        model = self._models[symbol]
        return model.n_transitions > 0 or not model.accepts_epsilon()

    @property
    def size(self) -> int:
        """Sum of the sizes of all automata (the paper's ``|D|``)."""
        return sum(model.size for model in self._models.values())

    def rules(self) -> Iterator[tuple[str, NFA]]:
        """All ``(symbol, automaton)`` pairs, alphabetically."""
        for symbol in sorted(self._alphabet):
            yield (symbol, self._models[symbol])

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def allows(self, symbol: str, word: Iterable[str]) -> bool:
        """Whether *word* is a legal children word for a *symbol* node."""
        return self.automaton(symbol).accepts(tuple(word))

    def violations(
        self, tree: Tree, nodes: "Iterable[NodeId] | None" = None
    ) -> Iterator[ValidationViolation]:
        """Yield every node whose children word is rejected — among all of
        *tree*'s nodes (document order), or only among *nodes*."""
        for node in tree.nodes() if nodes is None else nodes:
            label = tree.label(node)
            if label not in self._alphabet:
                yield ValidationViolation(node, label, tree.child_labels(node))
                continue
            word = tree.child_labels(node)
            if not self._models[label].accepts(word):
                yield ValidationViolation(node, label, word)

    def validates(self, tree: Tree, nodes: "Iterable[NodeId] | None" = None) -> bool:
        """``tree ∈ L(D)`` — nonempty and every node's children word accepted.

        Given *nodes*, only those nodes' children words are checked: the
        answer is ``tree ∈ L(D)`` whenever every other node has the label
        and children word of a node of some tree known to be in ``L(D)``.
        """
        if tree.is_empty:
            return False
        return next(self.violations(tree, nodes), None) is None

    def assert_valid(self, tree: Tree) -> None:
        """Raise :class:`DTDError` describing the first violation, if any."""
        if tree.is_empty:
            raise DTDError("the empty tree is not in L(D)")
        violation = next(self.violations(tree), None)
        if violation is not None:
            raise DTDError(f"tree violates DTD: {violation!r}")

    # ------------------------------------------------------------------
    # Satisfiability
    # ------------------------------------------------------------------

    def satisfiable_symbols(self) -> frozenset[str]:
        """Symbols ``a`` admitting some finite tree with root label ``a``.

        Iterated fixpoint: a symbol is satisfiable once its content model
        accepts some word of satisfiable symbols. Polynomial in ``|D|``
        (the paper cites [14] for the analogous result). Memoized — the
        rule set never changes after construction.
        """
        if self._satisfiable is not None:
            return self._satisfiable
        good: set[str] = set()
        changed = True
        while changed:
            changed = False
            for symbol in self._alphabet - good:
                model = self._models[symbol]
                if model.accepts_epsilon() or self._accepts_over(model, good):
                    good.add(symbol)
                    changed = True
        self._satisfiable = frozenset(good)
        return self._satisfiable

    @staticmethod
    def _accepts_over(model: NFA, allowed: set[str]) -> bool:
        """Whether the model accepts some word using only *allowed* symbols."""
        seen = {model.initial}
        stack = [model.initial]
        while stack:
            state = stack.pop()
            if model.is_final(state):
                return True
            for symbol, target in model.moves_from(state):
                if symbol in allowed and target not in seen:
                    seen.add(target)
                    stack.append(target)
        return False

    def assert_satisfiable(self) -> None:
        bad = self._alphabet - self.satisfiable_symbols()
        if bad:
            raise UnsatisfiableDTDError(bad)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def with_root(self, root_label: str) -> "RootedDTD":
        """Pair this DTD with a required root label (classic DTD semantics)."""
        if root_label not in self._alphabet:
            raise UnknownLabelError(root_label)
        return RootedDTD(self, root_label)

    def describe(self) -> str:
        """Human-readable rule listing, e.g. for READMEs and examples."""
        lines = []
        for symbol in sorted(self._alphabet):
            if self.has_explicit_rule(symbol):
                lines.append(f"{symbol} -> {self.rule_regex(symbol).to_dtd()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        explicit = sum(1 for a in self._alphabet if self.has_explicit_rule(a))
        return f"DTD(|Σ|={len(self._alphabet)}, rules={explicit}, size={self.size})"


class RootedDTD:
    """A DTD together with a required root label."""

    __slots__ = ("dtd", "root_label")

    def __init__(self, dtd: DTD, root_label: str) -> None:
        self.dtd = dtd
        self.root_label = root_label

    def validates(self, tree: Tree) -> bool:
        return (
            not tree.is_empty
            and tree.label(tree.root) == self.root_label
            and self.dtd.validates(tree)
        )

    def __repr__(self) -> str:
        return f"RootedDTD(root={self.root_label!r}, {self.dtd!r})"
