"""Deriving the view DTD (paper Section 2).

"We remark that a DTD capturing ``A(L(D))`` can be easily derived from
``D`` and ``A``. For instance, the view DTD for D0 and A0 is
``r → (a·d)*``, ``d → c*``."

A node's children word in the view is the original children word with
every hidden symbol erased (hidden subtrees disappear entirely because
visibility is upward closed). Per symbol ``a``, the view content model is
therefore the image of ``L(D(a))`` under the homomorphism that keeps
``y`` when ``A(a, y) = 1`` and maps it to ε otherwise. On the automaton
this is: turn hidden-symbol transitions into ε-moves, then eliminate
them by forward closure. On the rule's regex it is: replace each hidden
symbol by ε, which is how a view rule is printed.
"""

from __future__ import annotations

from typing import Mapping

from ..automata import NFA
from ..automata.regex import EPSILON, Concat, Epsilon, Optional, Plus, Regex, Star, Symbol, Union
from ..automata.regex import concat, union
from ..views.annotation import Annotation
from .dtd import DTD, LabelTable

__all__ = ["view_dtd", "erase_hidden"]


def erase_hidden(model: "NFA | Regex", visible: "set[str] | frozenset[str]") -> "NFA | Regex":
    """The homomorphic image of ``L(model)`` keeping only *visible* symbols.

    For a :class:`Regex`, each hidden symbol becomes ε (a regex no
    larger, see :func:`_erase_regex`). For an :class:`NFA`,
    transitions on non-visible symbols become ε-moves and are eliminated:
    for every state ``p``, every state ``p′`` in the hidden-closure of
    ``p``, and every visible transition ``p′ →y q``, the result has
    ``p →y q``; a state accepts if its closure meets the final set. The
    result keeps the original state set (restricted to what is used).
    """
    if isinstance(model, Regex):
        return _erase_regex(model, frozenset(visible))
    # hidden-closure per state (forward reachability over hidden moves)
    closure: dict = {}
    for state in model.states:
        reached = {state}
        stack = [state]
        while stack:
            current = stack.pop()
            for symbol, target in model.moves_from(current):
                if symbol not in visible and target not in reached:
                    reached.add(target)
                    stack.append(target)
        closure[state] = reached

    transitions = []
    for state in model.states:
        for mid in closure[state]:
            for symbol, target in model.moves_from(mid):
                if symbol in visible:
                    transitions.append((state, symbol, target))
    finals = [
        state for state in model.states if closure[state] & model.finals
    ]
    visible_alphabet = model.alphabet & frozenset(visible)
    return NFA(model.states, visible_alphabet, model.initial, transitions, finals).trim()


def _erase_regex(regex: Regex, visible: frozenset[str]) -> Regex:
    """*regex* with every symbol outside *visible* replaced by ε; the
    smart constructors drop the ε factors of a concatenation, and a
    union that lost a branch to ε becomes optional."""
    if isinstance(regex, Symbol):
        return regex if regex.name in visible else EPSILON
    if isinstance(regex, Concat):
        return concat(*(_erase_regex(part, visible) for part in regex.parts))
    if isinstance(regex, Union):
        parts = [_erase_regex(part, visible) for part in regex.parts]
        kept = [part for part in parts if not isinstance(part, Epsilon)]
        if not kept:
            return EPSILON
        body = union(*kept)
        return body if len(kept) == len(parts) or body.nullable() else Optional(body)
    if isinstance(regex, (Star, Plus, Optional)):
        inner = _erase_regex(regex.child, visible)
        return EPSILON if isinstance(inner, Epsilon) else type(regex)(inner)
    return regex


def view_dtd(
    dtd: DTD,
    annotation: Annotation,
    *,
    visible_table: "Mapping[str, frozenset[str]] | None" = None,
) -> DTD:
    """The DTD recognising exactly the views ``A(L(D))``.

    The result is automaton-backed. Its rule for a symbol ``a`` is
    ``erase_hidden(D(a), visible under a)``, derived the first time
    ``a`` is looked up (see :meth:`DTD.derived`), so a request pays for
    the symbols it reads. :meth:`DTD.rule_regex` displays a rule as the
    source rule's regex with the same symbols erased — the same
    language, at the source regex's size — so for the running example
    :meth:`DTD.describe` prints ``r -> (a,d)*`` and ``d -> c*``.

    *visible_table* (per parent label, the set of visible child labels)
    lets a compiled engine share its visibility tables instead of
    querying the annotation ``|Σ|`` times per symbol.
    """

    def visible(symbol: str) -> frozenset[str]:
        if visible_table is not None:
            return visible_table[symbol]
        return frozenset(
            child for child in dtd.alphabet if annotation.visible(symbol, child)
        )

    # Satisfiability is inherited: every symbol's minimal source tree
    # projects to a (possibly smaller) valid view tree.
    view = DTD.derived(
        dtd.alphabet, lambda symbol: erase_hidden(dtd.automaton(symbol), visible(symbol))
    )
    # state elimination on a wide view rule's automaton writes a regex
    # exponential in its width; erasing the source regex does not
    view._regexes = LabelTable(
        dtd.alphabet, lambda symbol: erase_hidden(dtd.rule_regex(symbol), visible(symbol))
    )
    return view
