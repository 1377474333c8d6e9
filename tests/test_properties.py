"""Property tests: certificate checks against a plain tuple scan.

Random claims on four small systems are checked by verify_certificate and
by scanning the block tuples directly; certificates round-trip through
JSON; and a claim with one malformed entry is refused with DesignError.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from nonincidence import (
    Design,
    DesignError,
    NonincidenceCertificate,
    bose,
    build_sts,
    verify_certificate,
)
from conftest import AG23_BLOCKS, FANO_BLOCKS

DESIGNS = [
    Design.from_blocks(7, FANO_BLOCKS),
    Design.from_blocks(9, AG23_BLOCKS),
    bose(15),
    build_sts(13),
]

# Fixed examples, so a run is reproducible; no example database.
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=200)


@st.composite
def claims(draw, min_size=0):
    """A design with a point set Y and block indices C.

    Half the time C is drawn from the blocks avoiding Y, so that both
    verdicts occur; otherwise, or when too few blocks avoid Y, from all
    blocks.
    """
    d = draw(st.sampled_from(DESIGNS))
    Y = draw(st.lists(st.integers(0, d.v - 1), min_size=min_size,
                      max_size=d.v // 2, unique=True))
    pool = range(d.b)
    avoiding = [i for i, blk in enumerate(d.blocks) if not set(blk) & set(Y)]
    if len(avoiding) >= min_size and draw(st.booleans()):
        pool = avoiding
    C = draw(st.lists(st.sampled_from(pool), min_size=min_size,
                      max_size=len(pool), unique=True)) if pool else []
    return d, Y, C


def plain_verdict(d, Y, C, require_square):
    if not Y or not C or require_square and len(Y) != len(C):
        return False
    return all(p not in d.blocks[i] for i in C for p in Y)


@PROPERTY
@given(claims(), st.booleans())
def test_verifier_agrees_with_tuple_scan(claim, require_square):
    d, Y, C = claim
    cert = NonincidenceCertificate.build(d, Y, C)
    got = verify_certificate(d, cert, require_square=require_square)
    assert got == plain_verdict(d, Y, C, require_square)


@PROPERTY
@given(claims(), st.dictionaries(st.sampled_from("abc"), st.integers()))
def test_json_round_trip(claim, meta):
    d, Y, C = claim
    cert = NonincidenceCertificate.build(d, Y, C, meta=meta)
    assert NonincidenceCertificate.from_json(cert.to_json()) == cert


@PROPERTY
@given(claims(min_size=2), st.sampled_from(["Y", "C"]),
       st.sampled_from(["repeated", "negative", "bool", "out of range"]),
       st.data())
def test_one_malformed_entry_is_design_error(claim, key, kind, data):
    d, Y, C = claim
    entries = list(Y if key == "Y" else C)
    n = d.v if key == "Y" else d.b
    i = data.draw(st.integers(0, len(entries) - 1))
    entries[i] = data.draw({
        "repeated": st.just(entries[i - 1]),
        "negative": st.integers(max_value=-1),
        "bool": st.booleans(),
        "out of range": st.integers(min_value=n),
    }[kind])
    obj = json.loads(NonincidenceCertificate.build(d, Y, C).to_json())
    obj[key] = entries
    # Block indices past the design's end are only caught by the verifier.
    with pytest.raises(DesignError):
        cert = NonincidenceCertificate.from_json(json.dumps(obj))
        verify_certificate(d, cert)
