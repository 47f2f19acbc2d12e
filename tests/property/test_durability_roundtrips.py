"""Round-trip properties the durable store stands on.

The write-ahead log persists edit scripts as record text, snapshots
persist trees as XML, and schema files persist the ``(DTD, Annotation)``
pair — so ``parse ∘ render`` must be the identity on all three, for
*every* value the library can produce, or recovery reconstructs a
subtly different document.
"""

import random

from hypothesis import given, settings, strategies as st

import pytest

from repro.dtd import parse_dtd, serialize_dtd
from repro.editing import EditScript
from repro.editing.ops import EditLabel, Op, parse_edit_label
from repro.editing.script import check_record_syntax
from repro.errors import InvalidScriptError
from repro.generators.dtds import random_annotation, random_dtd
from repro.registry import schema_fingerprint
from repro.store.wal import encode_record
from repro.views import Annotation
from repro.xmltree import tree_from_xml, tree_to_xml

from .strategies import trees

# Labels exercising the characters term notation can carry: plain,
# dotted, dashed, underscored, unicode, digit-leading.
SYMBOLS = ["a", "b2", "sec.meta", "x-y", "_u", "ä"]


@st.composite
def edit_scripts(draw, max_depth=3, max_children=3):
    """Random *well-formed* edit scripts (descendants of Ins are Ins,
    of Del are Del), including renames."""
    counter = [0]

    def build(depth, forced):
        node = f"n{counter[0]}"
        counter[0] += 1
        if forced is None:
            op = draw(st.sampled_from([Op.NOP, Op.INS, Op.DEL, Op.REN]))
        else:
            op = forced
        symbol = draw(st.sampled_from(SYMBOLS))
        if op is Op.REN:
            target = draw(st.sampled_from([s for s in SYMBOLS if s != symbol]))
            label = EditLabel(Op.REN, symbol.replace(".", "_"), target)
        else:
            label = EditLabel(op, symbol)
        n_children = 0 if depth >= max_depth else draw(st.integers(0, max_children))
        child_forced = op if op in (Op.INS, Op.DEL) else None
        children = [build(depth + 1, child_forced) for _ in range(n_children)]
        return EditScript.assemble(label, node, children)

    return build(0, None)


class TestScriptTermRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(script=edit_scripts())
    def test_parse_render_is_identity(self, script):
        """``EditScript.parse(script.to_term()) == script`` — identifiers,
        operations, and symbols all included (the WAL's contract)."""
        rendered = script.to_term()
        assert EditScript.parse(rendered) == script
        # and rendering is stable under the round trip
        assert EditScript.parse(rendered).to_term() == rendered

    @settings(max_examples=200, deadline=None)
    @given(script=edit_scripts())
    def test_record_text_reads_back_against_the_input(self, script):
        """``parse(to_record(), base=In(S), skips=True) == S``, and the
        script read back, sparse or whole, writes the same record text:
        equal scripts journal equal bytes."""
        record = script.to_record()
        check_record_syntax(record)
        back = EditScript.parse(record, base=script.input_tree, skips=True)
        assert back == script
        assert back.to_record() == record
        assert EditScript.parse(script.to_term()).to_record() == record

    @settings(max_examples=200, deadline=None)
    @given(script=edit_scripts(), seq=st.integers(1, 2**31))
    def test_wal_record_encoding_is_transparent(self, script, seq):
        """What goes through the WAL record framing comes back verbatim."""
        record = encode_record(seq, script.to_term())
        header, payload_and_newline = record.split(b"\n", 1)
        payload = payload_and_newline[:-1]
        assert payload.decode("utf-8") == script.to_term()
        assert EditScript.parse(payload.decode("utf-8")) == script

    def test_every_edit_label_round_trips(self):
        for symbol in SYMBOLS:
            for op in (Op.NOP, Op.INS, Op.DEL):
                label = EditLabel(op, symbol)
                assert parse_edit_label(label.encode()) == label
        label = EditLabel(Op.REN, "old", "new.with.dots")
        assert parse_edit_label(label.encode()) == label

    def test_ambiguous_rename_encoding_is_refused(self):
        """A rename of a dotted symbol cannot be written unambiguously in
        compact form — encode() must refuse instead of corrupting."""
        label = EditLabel(Op.REN, "a.b", "c")
        with pytest.raises(InvalidScriptError, match="dotted"):
            label.encode()


class TestTreeXmlRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(tree=trees())
    def test_xml_round_trip_is_identifier_exact(self, tree):
        rendered = tree_to_xml(tree, indent=False)
        assert tree_from_xml(rendered, require_ids=True) == tree

    def test_missing_ids_rejected_when_required(self):
        with pytest.raises(Exception, match="lacks"):
            tree_from_xml('<r id="n0"><a/></r>', require_ids=True)


class TestSchemaRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_dtd_and_annotation_fingerprints_survive_disk(self, seed):
        """serialize→parse preserves the canonical schema fingerprint —
        including alphabet symbols no rule references (the store refuses
        to open documents whose schema files drifted)."""
        rng = random.Random(seed)
        dtd = random_dtd(rng, n_labels=rng.randint(3, 6))
        annotation = random_annotation(rng, dtd)
        reread_dtd = parse_dtd(serialize_dtd(dtd))
        reread_ann = Annotation.parse(annotation.serialize())
        assert sorted(reread_dtd.alphabet) == sorted(dtd.alphabet)
        assert schema_fingerprint(reread_dtd, reread_ann) == schema_fingerprint(
            dtd, annotation
        )
