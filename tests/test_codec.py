"""Canonical JSON codecs: roundtrips, byte-stability, and error locations."""

import json
import tracemalloc
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from absorb import codec
from absorb import (
    Certificate,
    CertEntry,
    CertStep,
    NotSubuniverseError,
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
from reference import reference_certificate_text

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
        obj = codec.decision_to_obj(decision)
        assert obj == {"holds": True}
        text = reference_certificate_text(decision.certificate)
        encoded = {"certificate": codec.dump_certificate(decision.certificate)}
        assert encoded["certificate"] == text

        def whole(extra):
            # the whole object, certificate included, through json.dumps
            full = dict(obj, certificate=json.loads(text), **extra)
            return json.dumps(full, sort_keys=True, separators=(",", ":"))

        assert codec.dumps(obj, encoded) == codec.dump_decision(decision) == whole({})
        assert codec.dumps(dict(obj, mode="x"), encoded) == whole({"mode": "x"})

    def test_bad_quintuple_length(self):
        with pytest.raises(ParseError, match="5 entries"):
            codec.parse_certificate('{"quintuples":[{"q":[0,1],"steps":[]}]}')

    def test_holds_stays_a_boolean(self):
        assert codec.parse_decision('{"holds":false,"failing":[0,1,1,0,0]}').holds is False
        with pytest.raises(ParseError, match="wrong type"):
            codec.parse_decision('{"holds":1}')


def _leq(n, perm=None):
    p = perm or list(range(n))
    return structure(n, {"leq": [(p[x], p[y]) for x, y in product(range(n), repeat=2) if x <= y]})


def _min_graph(n):
    return structure(n, {"min": [(x, y, min(x, y)) for x, y in product(range(n), repeat=2)]})


# name -> (structure, B) of holding instances whose certificates are encoded
HOLDING = {
    "ord2": (ord2, [0]),
    "leq3": (lambda: _leq(3), [0]),
    "r3": (lambda: structure(3, {"r": [p for p in product(range(3), repeat=2) if p != (1, 2)]}),
           [0]),
    "min3": (lambda: _min_graph(3), [0, 1]),
    "min4": (lambda: _min_graph(4), [0, 1]),
    # leq5 with 1 and the top element swapped: not min-closed
    "leq5r": (lambda: _leq(5, [0, 4, 2, 3, 1]), [0]),
    "perm6": (lambda: structure(6, {"p": [(x, (x + 1) % 6) for x in range(6)]}), [0]),
    "or5": (lambda: structure(5, {"r": [(x, y) for x, y in product(range(5), repeat=2)
                                        if max(x, y) >= 1]}), [4]),
    "leq4, B = A": (lambda: _leq(4), [0, 1, 2, 3]),
}


@st.composite
def certificates(draw):
    """Certificates over three elements: a few ternary tables, each shared by
    any number of steps, and entries of up to three steps, or none."""
    tables = draw(st.lists(
        st.tuples(*[st.integers(0, 2)] * 27).map(lambda v: OperationTable(3, 3, v)),
        min_size=1, max_size=3,
    ))
    value = st.integers(0, 2)
    step = st.builds(CertStep, value, value, value, st.sampled_from(tables))
    entry = st.builds(
        CertEntry, st.builds(Quintuple, *[value] * 5), st.lists(step, max_size=3).map(tuple)
    )
    return Certificate(tuple(draw(st.lists(entry, max_size=6))))


class TestCertificateText:
    """`dump_certificate` encodes each distinct table once and formats the
    rest in place; its text is the nested object's, byte for byte."""

    @pytest.mark.parametrize("name", list(HOLDING))
    def test_equals_the_reference_text(self, name):
        make, elements = HOLDING[name]
        decision = decide_jonsson(make(), subset(elements))
        assert decision.holds
        text = codec.dump_certificate(decision.certificate)
        assert text == reference_certificate_text(decision.certificate)

    @given(certificates())
    def test_drawn_certificates(self, cert):
        text = codec.dump_certificate(cert)
        assert text == reference_certificate_text(cert)
        assert codec.parse_certificate(text) == cert

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        binary=st.sets(st.tuples(*[st.integers(0, 2)] * 2), min_size=1),
        elements=st.sets(st.integers(0, 2), min_size=1, max_size=3),
    )
    def test_certificates_of_drawn_structures(self, binary, elements):
        try:
            decision = decide_jonsson(structure(3, {"r": sorted(binary)}), subset(elements))
        except NotSubuniverseError:
            return
        if decision.holds:
            cert = decision.certificate
            assert any(not e.steps for e in cert.entries)
            assert codec.dump_certificate(cert) == reference_certificate_text(cert)

    def test_encoding_allocates_little_beyond_its_text(self):
        # the nested object took about 30 times the text's length
        cert = decide_jonsson(_min_graph(4), subset([0, 1])).certificate
        length = len(codec.dump_certificate(cert))
        tracemalloc.start()
        try:
            codec.dump_certificate(cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * length + (64 << 10)


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

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (codec.parse_subset, '{"elements":[0,false]}', "subset: expected a list of integers"),
            (codec.parse_table, '{"arity":1,"values":[true,0]}',
             "table: expected a list of integers"),
            (codec.parse_certificate, '{"quintuples":[{"q":[0,1,true,0,0],"steps":[]}]}',
             "certificate entry 0: expected a list of integers"),
        ],
        ids=["subset", "table", "quintuple"],
    )
    def test_an_integer_list_holds_no_boolean(self, parse, text, message):
        with pytest.raises(ParseError, match="^%s$" % message):
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
