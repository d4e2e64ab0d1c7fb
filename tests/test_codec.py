"""Canonical JSON codecs: roundtrips, byte-stability, and error locations."""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from absorb import codec
from absorb import (
    Certificate,
    CertEntry,
    CertStep,
    OperationTable,
    ParseError,
    PPFormula,
    Quintuple,
    Relation,
    decide_jonsson,
    projection_table,
    relation,
    structure,
    subset,
)
from absorb.comb import CombFormula
from absorb.ppform import Atom
from fixtures import B0, LEQ, ord2

LEQ3 = [(x, y) for x in range(3) for y in range(3) if x <= y]


@st.composite
def structures(draw):
    size = draw(st.integers(1, 3))
    n_rels = draw(st.integers(0, 3))
    items = {}
    for i in range(n_rels):
        arity = draw(st.integers(1, 3))
        tuples = draw(
            st.frozensets(
                st.tuples(*[st.integers(0, size - 1)] * arity), max_size=6
            )
        )
        items["r%d" % i] = Relation(arity, tuples)
    return structure(size, items)


class TestStructureCodec:
    @given(structures())
    def test_roundtrip(self, a):
        assert codec.parse_structure(codec.dump_structure(a)) == a

    @given(structures())
    def test_serialization_is_stable(self, a):
        text = codec.dump_structure(a)
        assert codec.dump_structure(codec.parse_structure(text)) == text

    def test_ord2_document(self):
        text = codec.dump_structure(ord2())
        again = codec.parse_structure(text)
        assert again.rel("leq").tuples == frozenset(LEQ)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            codec.parse_structure("{not json")

    def test_out_of_range_entry(self):
        with pytest.raises(ParseError, match="out of range"):
            codec.parse_structure(
                '{"size":2,"relations":{"r":{"arity":2,"tuples":[[0,2]]}}}'
            )

    def test_tuple_arity_mismatch(self):
        with pytest.raises(ParseError, match="arity"):
            codec.parse_structure(
                '{"size":2,"relations":{"r":{"arity":2,"tuples":[[0,1,1]]}}}'
            )

    def test_missing_key(self):
        with pytest.raises(ParseError, match="missing key"):
            codec.parse_structure('{"size":2}')


class TestSubsetAndTableCodec:
    @given(st.frozensets(st.integers(0, 5)))
    def test_subset_roundtrip(self, elems):
        b = subset(elems)
        assert codec.parse_subset(codec.dump_subset(b)) == b

    def test_min_table_document(self):
        t = codec.parse_table('{"arity":2,"values":[0,0,0,1]}')
        assert t.size == 2 and t.apply((1, 0)) == 0

    @given(st.integers(1, 3), st.integers(2, 3), st.data())
    def test_table_roundtrip(self, arity, size, data):
        values = tuple(
            data.draw(st.integers(0, size - 1)) for _ in range(size ** arity)
        )
        t = OperationTable(arity, size, values)
        assert codec.parse_table(codec.dump_table(t)) == t

    def test_bad_table_length(self):
        with pytest.raises(ParseError, match="power"):
            codec.parse_table('{"arity":2,"values":[0,0,0]}')

    def test_huge_arity_is_refused_without_its_powers(self):
        # no n >= 2 has n ** arity == 2 once 2 ** arity > 2; 2 ** 10**8
        # alone would take 12.5 MB
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="^table: length 2 is not a perfect 100000000-th power$"):
                codec.parse_table('{"arity": 100000000, "values": [0, 1]}')
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # one value is the table of size 1, at any arity
        assert codec.parse_table('{"arity": 64, "values": [0]}').size == 1

    def test_table_value_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            codec.parse_table('{"arity":1,"values":[0,7]}')


class TestCertificateCodec:
    def _sample(self):
        step = CertStep(0, 0, 1, projection_table(2, 3, 2))
        return Certificate((CertEntry(Quintuple(0, 1, 0, 0, 0), (step,)),))

    def test_roundtrip(self):
        cert = self._sample()
        assert codec.parse_certificate(codec.dump_certificate(cert)) == cert

    def test_real_certificate_roundtrip(self):
        decision = decide_jonsson(ord2(), B0)
        text = codec.dump_certificate(decision.certificate)
        assert codec.parse_certificate(text) == decision.certificate

    def test_one_table_per_distinct_table(self):
        decision = decide_jonsson(structure(3, {"leq": LEQ3}), B0)
        cert = codec.parse_certificate(codec.dump_certificate(decision.certificate))
        assert cert == decision.certificate
        phis = [s.phi for e in cert.entries for s in e.steps]
        assert len({id(phi) for phi in phis}) == len(set(phis)) < len(phis)

    def test_decision_roundtrip(self):
        decision = decide_jonsson(ord2(), B0)
        again = codec.parse_decision(codec.dump_decision(decision))
        assert again == decision

    def test_an_encoded_certificate_goes_in_as_it_is(self):
        decision = decide_jonsson(ord2(), B0)
        obj = codec.decision_to_obj(decision, certificate=False)
        assert obj == {"holds": True}
        encoded = {"certificate": codec.dump_certificate(decision.certificate)}
        assert codec.dumps(obj, encoded) == codec.dump_decision(decision)
        assert codec.dumps(dict(obj, mode="x"), encoded) == codec.dumps(
            dict(codec.decision_to_obj(decision), mode="x")
        )

    def test_bad_quintuple_length(self):
        with pytest.raises(ParseError, match="5 entries"):
            codec.parse_certificate('{"quintuples":[{"q":[0,1],"steps":[]}]}')

    def test_holds_stays_a_boolean(self):
        assert codec.parse_decision('{"holds":false,"failing":[0,1,1,0,0]}').holds is False
        with pytest.raises(ParseError, match="wrong type"):
            codec.parse_decision('{"holds":1}')


class TestBooleansAreNotNumbers:
    @pytest.mark.parametrize(
        "parse, text",
        [
            (codec.parse_structure, '{"size":true,"relations":{}}'),
            (codec.parse_structure, '{"size":2,"relations":{"r":{"arity":true,"tuples":[[0]]}}}'),
            (codec.parse_structure, '{"size":2,"relations":{"r":{"arity":1,"tuples":[[false]]}}}'),
            (codec.parse_subset, '{"elements":[true]}'),
            (codec.parse_table, '{"arity":1,"values":[0,true]}'),
            (codec.parse_certificate, '{"quintuples":[{"q":[0,1,0,0,false],"steps":[]}]}'),
            (
                codec.parse_certificate,
                '{"quintuples":[{"q":[0,1,0,0,0],"steps":[{"b":false,"u":0,"v":1,'
                '"phi":{"arity":1,"values":[0,1]}}]}]}',
            ),
            (
                # the second table equals the first in Python, true == 1
                codec.parse_certificate,
                '{"quintuples":[{"q":[0,1,0,0,0],"steps":['
                '{"b":0,"u":0,"v":1,"phi":{"arity":1,"values":[0,1]}},'
                '{"b":0,"u":0,"v":1,"phi":{"arity":1,"values":[0,true]}}]}]}',
            ),
        ],
        ids=["size", "arity", "tuple", "subset", "table", "quintuple", "color", "repeated table"],
    )
    def test_rejected(self, parse, text):
        with pytest.raises(ParseError):
            parse(text)


# a certificate whose entry 1 step 1 holds a table with a value out of range
BAD_STEP_CERT = (
    '{"quintuples":[{"q":[0,0,0,0,0],"steps":[]},{"q":[0,1,0,0,0],"steps":['
    '{"b":0,"u":0,"v":1,"phi":{"arity":1,"values":[0,1]}},'
    '{"b":0,"u":0,"v":1,"phi":{"arity":1,"values":[0,5]}}]}]}'
)


class TestParseErrorsNameTheirLocation:
    """A document that breaks a value type's rule fails its `parse_*` with a
    ParseError, not a bare InputError, whose message names where."""

    @pytest.mark.parametrize(
        "parse, text, where",
        [
            (codec.parse_structure, '{"size":2,"relations":{"r":{"arity":0,"tuples":[]}}}',
             "relation 'r'"),
            (codec.parse_structure, '{"size":2,"relations":{"r":{"arity":2,"tuples":[[0,2]]}}}',
             "relation 'r'"),
            (codec.parse_structure,
             '{"size":2,"relations":{"r":{"arity":2,"tuples":[[0,1],[0,1,1]]}}}',
             "relation 'r'"),
            (codec.parse_subset, '{"elements":[0,-1]}', "subset"),
            (codec.parse_table, '{"arity":1,"values":[0,5]}', "table"),
            (codec.parse_certificate, BAD_STEP_CERT, "certificate entry 1 step 1"),
            (codec.parse_formula, '{"free":["x","x"],"atoms":[]}', "formula"),
            (codec.parse_comb,
             '{"sections":[{"arity":3,"tuples":[]},{"arity":2,"tuples":[[0,1]]}]}',
             "comb section 1"),
            (codec.parse_comb, '{"sections":[{"arity":0,"tuples":[]}]}', "comb section 0"),
            (codec.parse_comb, '{"sections":[]}', "comb"),
        ],
        ids=[
            "arity-0 relation", "entry out of range", "tuple length", "negative element",
            "table value", "certificate table value", "duplicate free variables",
            "non-ternary section", "arity-0 section", "no sections",
        ],
    )
    def test_rejected_with_location(self, parse, text, where):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert where in str(excinfo.value)


class TestFormulaCodec:
    def test_roundtrip(self):
        phi = PPFormula(("x1", "x2"), (Atom("leq", ("x1", "y")), Atom("leq", ("y", "x2"))))
        assert codec.parse_formula(codec.dump_formula(phi)) == phi

    def test_non_string_scope_rejected(self):
        with pytest.raises(ParseError):
            codec.parse_formula('{"free":["x"],"atoms":[{"rel":"r","scope":[1]}]}')


class TestCombCodec:
    def test_roundtrip(self):
        comb = CombFormula(
            2,
            (
                relation(3, [(0, 0, 1), (0, 1, 0)]),
                relation(3, [(1, 0, 0)]),
            ),
        )
        assert codec.parse_comb(codec.dump_comb(comb)) == comb

    def test_wrong_arity_section_rejected(self):
        with pytest.raises(Exception):
            codec.parse_comb('{"sections":[{"arity":2,"tuples":[[0,1]]}]}')
