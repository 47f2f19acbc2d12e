"""Differential suites for the term codec and the journal's round-trip
guard.

* The iterative :func:`repro.xmltree.parse_term` (and
  :meth:`EditScript.parse` on top of it) against a recursive reference
  parser kept here: on generated terms and single-character mutations
  of them, both return equal trees or both raise the same error.
* :meth:`EditScript.check_round_trip` against the round trip it
  replaces: it refuses a script exactly when
  ``EditScript.parse(script.to_term())`` raises or differs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.editing import EditScript
from repro.editing.ops import EditLabel, Op, parse_edit_label
from repro.errors import InvalidScriptError, ScriptError, TermSyntaxError, TreeError
from repro.xmltree import NodeIds, Tree, parse_forest, parse_term

# ---------------------------------------------------------------------------
# The reference: a recursive character scanner, one Tree.build per node
# ---------------------------------------------------------------------------


def _is_word_char(char: str) -> bool:
    return char.isalnum() or char in "_-."


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> TermSyntaxError:
        return TermSyntaxError(f"{message} at position {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def word(self, what: str) -> str:
        start = self.pos
        while self.pos < len(self.text) and _is_word_char(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected {what}")
        return self.text[start:self.pos]

    def node(self) -> tuple:
        self.skip_ws()
        label = self.word("a label")
        nid = None
        if self.peek() == "#":
            self.pos += 1
            nid = self.word("a node identifier")
        children: list = []
        self.skip_ws()
        if self.peek() == "(":
            self.pos += 1
            self.skip_ws()
            if self.peek() == ")":
                self.pos += 1
            else:
                while True:
                    children.append(self.node())
                    self.skip_ws()
                    if self.peek() == ",":
                        self.pos += 1
                        continue
                    self.expect(")")
                    break
        return (label, nid, children)

    def parse(self) -> tuple:
        self.skip_ws()
        result = self.node()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        return result


def _collect_explicit_ids(node: tuple, out: set) -> None:
    _, nid, children = node
    if nid is not None:
        if nid in out:
            raise TermSyntaxError(f"duplicate node identifier {nid!r}")
        out.add(nid)
    for child in children:
        _collect_explicit_ids(child, out)


def _to_tree(node: tuple, fresh: NodeIds) -> Tree:
    label, nid, children = node
    identifier = nid if nid is not None else fresh.fresh()
    return Tree.build(label, identifier, [_to_tree(kid, fresh) for kid in children])


def reference_parse_term(text: str) -> Tree:
    parsed = _Parser(text).parse()
    explicit: set = set()
    _collect_explicit_ids(parsed, explicit)
    return _to_tree(parsed, NodeIds("n", forbidden=explicit))


def reference_parse_forest(text: str) -> list:
    parser = _Parser(text)
    parser.skip_ws()
    nodes: list = []
    if parser.pos < len(parser.text):
        while True:
            nodes.append(parser.node())
            parser.skip_ws()
            if parser.peek() == ",":
                parser.pos += 1
                continue
            break
        if parser.pos != len(parser.text):
            raise parser.error("trailing input")
    explicit: set = set()
    for node in nodes:
        _collect_explicit_ids(node, explicit)
    fresh = NodeIds("n", forbidden=explicit)
    return [_to_tree(node, fresh) for node in nodes]


def reference_parse_edit_label(text: str) -> EditLabel:
    text = text.strip()
    if text.startswith("Ren(") and text.endswith(")"):
        body = text[4:-1]
        for arrow in ("→", "->"):
            if arrow in body:
                old, new = body.split(arrow, 1)
                return EditLabel(Op.REN, old.strip(), new.strip())
        raise InvalidScriptError(f"renaming label needs an arrow: {text!r}")
    if text.startswith("Ren."):
        parts = text[4:].split(".", 1)
        if len(parts) != 2:
            raise InvalidScriptError(f"compact renaming is Ren.old.new: {text!r}")
        return EditLabel(Op.REN, parts[0], parts[1])
    for op in (Op.INS, Op.DEL, Op.NOP):
        name = op.value
        if text.startswith(name + "(") and text.endswith(")"):
            return EditLabel(op, text[len(name) + 1:-1].strip())
        if text.startswith(name + "."):
            return EditLabel(op, text[len(name) + 1:])
    raise InvalidScriptError(f"cannot parse edit label {text!r}")


def reference_parse_script(text: str) -> EditScript:
    return EditScript(reference_parse_term(text).map_labels(reference_parse_edit_label))


def _maps(result):
    if isinstance(result, list):
        return [_maps(tree) for tree in result]
    tree = result.tree if isinstance(result, EditScript) else result
    return (tree._root, tree._labels, tree._children)


def _outcome(parse, text: str):
    """``("ok", node maps)`` or ``("error", class, message)``. The root,
    labels and children fix a tree and its document order; comparing
    or printing them, unlike a tree, terminates even when a faulty
    parser links a node to itself."""
    try:
        return ("ok", _maps(parse(text)))
    except Exception as error:
        return ("error", type(error), str(error))


def _assert_same(reference, candidate, text: str) -> None:
    assert _outcome(candidate, text) == _outcome(reference, text), text


# ---------------------------------------------------------------------------
# Generated terms
# ---------------------------------------------------------------------------

# ASCII and non-ASCII word characters: Latin, an Arabic-Indic digit, a
# titlecase letter, a superscript digit (isalnum but not isdecimal)
WORD_CHARS = "ab_-.xZ9é٣ǅ²"
SPACES = ["", "", " ", "  ", "\t", "\n", "　", "\x1c"]
# what a one-character mutation may insert or substitute
MUTANTS = "(),# \t.a9é!$　"


def _words(min_size: int = 1):
    return st.text(alphabet=WORD_CHARS, min_size=min_size, max_size=3)


@st.composite
def terms(draw, edit_labels: bool = False, max_nodes: int = 10) -> str:
    """A well-formed term with random whitespace, ``()`` leaves, and
    auto, explicit or mixed identifiers (explicit ones drawn from a
    small pool, so duplicates occur too)."""
    budget = [draw(st.integers(1, max_nodes))]
    id_style = draw(st.sampled_from(["auto", "explicit", "mixed"]))
    pool = ["n0", "n1", "n2", "x", "é9", "n10", "a.b", "q-1"]

    def ws() -> str:
        return draw(st.sampled_from(SPACES))

    def label(parent_op: "str | None") -> "tuple[str, str | None]":
        if not edit_labels:
            return draw(_words()), None
        if parent_op in ("Ins", "Del") and draw(st.integers(0, 9)):
            op = parent_op  # mostly well-formed scripts
        else:
            op = draw(st.sampled_from(["Nop", "Nop", "Ins", "Del", "Ren"]))
        symbol = draw(_words(min_size=0))
        if op == "Ren":
            return f"Ren.{symbol}.{draw(_words(min_size=0))}", op
        return f"{op}.{symbol}", op

    def node(parent_op: "str | None") -> str:
        budget[0] -= 1
        text, op = label(parent_op)
        text = ws() + text
        if id_style == "explicit" or (id_style == "mixed" and draw(st.booleans())):
            text += "#" + draw(st.sampled_from(pool) | _words())
        text += ws()
        width = draw(st.integers(0, 3)) if budget[0] > 0 else 0
        kids = []
        for _ in range(width):
            if budget[0] <= 0:
                break
            kids.append(node(op))
        if kids:
            text += "(" + ",".join(kid + ws() for kid in kids) + ")"
        elif draw(st.booleans()):
            text += "(" + ws() + ")"
        return text + ws()

    return node(None)


@st.composite
def mutated(draw, base) -> str:
    """*base* with one character deleted, inserted or replaced."""
    text = draw(base)
    at = draw(st.integers(0, len(text)))
    kind = draw(st.sampled_from(["delete", "insert", "replace"]))
    char = draw(st.sampled_from(MUTANTS))
    if kind == "insert" or at == len(text):
        return text[:at] + char + text[at:]
    if kind == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + char + text[at + 1:]


@st.composite
def forests(draw) -> str:
    parts = draw(st.lists(terms(max_nodes=4), max_size=3))
    return ",".join(parts) + draw(st.sampled_from(SPACES))


class TestParserDifferential:
    @settings(max_examples=400, deadline=None)
    @given(terms() | mutated(terms()))
    def test_parse_term_matches_reference(self, text):
        _assert_same(reference_parse_term, parse_term, text)

    @settings(max_examples=400, deadline=None)
    @given(terms(edit_labels=True) | mutated(terms(edit_labels=True)))
    def test_edit_script_parse_matches_reference(self, text):
        _assert_same(reference_parse_script, EditScript.parse, text)

    @settings(max_examples=200, deadline=None)
    @given(forests() | mutated(forests()))
    def test_parse_forest_matches_reference(self, text):
        _assert_same(reference_parse_forest, parse_forest, text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=WORD_CHARS + "(),# \t　!", max_size=12))
    def test_arbitrary_text_matches_reference(self, text):
        _assert_same(reference_parse_term, parse_term, text)

    @settings(max_examples=400, deadline=None)
    @given(
        st.tuples(
            st.sampled_from(["", " ", "Ins", "Del", "Nop", "Ren", "Re", "Nopx"]),
            st.sampled_from(["(", ".", "", " ("]),
            st.text(alphabet="ab.()→-> \t", max_size=6),
            st.sampled_from([")", "", " ) ", ").b"]),
        ).map("".join)
    )
    def test_edit_label_decoding_matches_reference(self, text):
        def outcome(decode):
            try:
                return decode(text)
            except InvalidScriptError as error:
                return str(error)

        assert outcome(parse_edit_label) == outcome(reference_parse_edit_label)


# ---------------------------------------------------------------------------
# The journal guard
# ---------------------------------------------------------------------------

SAFE_IDS = _words()
SAFE_SYMBOLS = st.text(alphabet="ab9é-_", max_size=3)
# identifiers and symbols from an alphabet term notation cannot carry
HOSTILE_IDS = st.one_of(
    st.text(alphabet="ab9é .,()#", max_size=3),  # includes the empty string
    st.integers(-2, 9),
    SAFE_IDS,
)
HOSTILE_SYMBOLS = st.text(alphabet="ab9é .,()#-", max_size=3) | st.integers(0, 3)


@st.composite
def hostile_scripts(draw) -> EditScript:
    """Well-formed scripts whose identifiers and labels may fall outside
    term notation: spaces, commas, parentheses, ``#``, the empty string,
    ``int`` identifiers and symbols, and renamings of dotted symbols. A
    script is either safe throughout, safe but for one identifier or one
    symbol, or hostile throughout."""
    hostility = draw(st.sampled_from(["none", "id", "symbol", "all"]))
    every = hostility == "all"
    ids = draw(
        st.lists(HOSTILE_IDS if every else SAFE_IDS, min_size=1, max_size=8, unique=True)
    )
    if hostility == "id":
        at = draw(st.integers(0, len(ids) - 1))
        odd = draw(HOSTILE_IDS.filter(lambda nid: nid not in ids))
        ids[at] = odd
    odd_symbol = draw(st.integers(0, len(ids) - 1)) if hostility == "symbol" else None
    labels: dict = {}
    children: dict = {}
    for index, node in enumerate(ids):
        parent_op = None
        if index:
            parent = ids[draw(st.integers(0, index - 1))]
            children.setdefault(parent, []).append(node)
            parent_op = labels[parent].op
        if parent_op in (Op.INS, Op.DEL):
            op = parent_op
        else:
            op = draw(st.sampled_from([Op.NOP, Op.INS, Op.DEL, Op.REN]))
        symbols = HOSTILE_SYMBOLS if every or index == odd_symbol else SAFE_SYMBOLS
        symbol = draw(symbols)
        target = None
        if op is Op.REN:
            target = draw(symbols.filter(lambda t, s=symbol: t != s))
        labels[node] = EditLabel(op, symbol, target)
    return EditScript(Tree(ids[0], labels, children))


def _round_trip(script: EditScript) -> "type[Exception] | None":
    """``None`` when the script survives the round trip; else the class
    :meth:`EditScript.to_term` raises, or :class:`InvalidScriptError`
    when the text does not parse back, or parses back different."""
    try:
        text = script.to_term()
    except Exception as error:  # a label encode() refuses, say
        return type(error)
    try:
        return None if EditScript.parse(text) == script else InvalidScriptError
    except (ScriptError, TreeError):
        return InvalidScriptError


def _guard(script: EditScript) -> "type[Exception] | None":
    try:
        script.check_round_trip()
    except Exception as error:
        return type(error)
    return None


class TestRoundTripGuardDifferential:
    @settings(max_examples=600, deadline=None)
    @given(hostile_scripts())
    def test_guard_refuses_exactly_when_the_round_trip_fails(self, script):
        assert _guard(script) == _round_trip(script)

    @settings(max_examples=200, deadline=None)
    @given(terms(edit_labels=True))
    def test_parsed_scripts_pass_the_guard(self, text):
        try:
            script = EditScript.parse(text)
        except (ScriptError, TreeError):
            return
        script.check_round_trip()
        assert EditScript.parse(script.to_term()) == script

    def test_empty_script_is_refused(self):
        script = EditScript(Tree.empty())
        assert _round_trip(script) is InvalidScriptError
        assert _guard(script) is InvalidScriptError
