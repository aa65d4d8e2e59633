"""The array inverted file against the dict-of-posting-lists oracle in `oracles`.

Corpora have ids in random order, exact duplicate documents (tied scores),
documents with no nonzeros, and queries on dimensions no document has.
Without IDF the two agree bit for bit; IDF renormalizes documents with a
sum in another order, so scores there agree within 1e-12.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hmpsearch import (
    ImageDescriptor,
    apply_idf,
    build_index,
    l2_normalize,
    load_index,
    query,
    save_index,
)
import oracles
from oracles import postings_of

SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def random_descriptor(rng, image_id, dimension):
    nnz = int(rng.integers(0, min(dimension, 4) + 1))
    dims = np.sort(rng.choice(dimension, size=nnz, replace=False))
    values = rng.standard_normal(nnz)
    values[values == 0.0] = 0.5
    return ImageDescriptor(image_id, dimension, dims, l2_normalize(values))


@st.composite
def corpora(draw):
    """(dimension, documents, queries); a third of the documents copy an
    earlier one, and the first query and about half of the others are
    stored documents."""
    dimension = draw(st.integers(1, 12))
    ids = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=10, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    docs = []
    for image_id in ids:
        if docs and rng.uniform() < 0.3:
            twin = docs[rng.integers(len(docs))]
            docs.append(ImageDescriptor(image_id, dimension, twin.indices, twin.values))
        else:
            docs.append(random_descriptor(rng, image_id, dimension))
    queries = [docs[rng.integers(len(docs))]] + [
        docs[n] if n < len(docs) else random_descriptor(rng, f"query-{n}", dimension)
        for n in rng.permutation(2 * len(docs))[:3]
    ]
    return dimension, docs, queries


def dict_index(dimension, docs):
    idx = oracles.DictIndex(dimension)
    for doc in docs:
        oracles.index_add(idx, doc)
    return idx


def score_bits(ranked):
    return np.array([s for _, s in ranked], dtype=np.float64).view(np.int64).tolist()


@SETTINGS
@given(
    corpus=corpora(),
    top_k=st.one_of(st.none(), st.integers(0, 5)),
    self_exclude=st.booleans(),
)
def test_query_matches_oracle_bitwise(corpus, top_k, self_exclude):
    dimension, docs, queries = corpus
    idx = build_index(dimension, docs)
    oracle = dict_index(dimension, docs)
    assert postings_of(idx) == oracle.postings
    for q in queries:
        got = query(idx, q, top_k, self_exclude)
        want = oracles.index_query(oracle, q, top_k, self_exclude)
        assert [i for i, _ in got] == [i for i, _ in want]
        assert score_bits(got) == score_bits(want)


@SETTINGS
@given(corpus=corpora(), self_exclude=st.booleans())
def test_idf_query_matches_oracle(corpus, self_exclude):
    dimension, docs, queries = corpus
    idx = apply_idf(build_index(dimension, docs))
    oracle = oracles.index_apply_idf(dict_index(dimension, docs))
    assert idx.idf.tolist() == oracle.idf.tolist()
    assert sorted(postings_of(idx)) == sorted(oracle.postings)
    for q in queries:
        got = dict(query(idx, q, None, self_exclude))
        want = dict(oracles.index_query(oracle, q, None, self_exclude))
        assert sorted(got) == sorted(want)
        np.testing.assert_allclose(
            [got[i] for i in sorted(got)], [want[i] for i in sorted(want)], rtol=0, atol=1e-12
        )


@SETTINGS
@given(corpus=corpora(), weighted=st.booleans())
def test_save_of_load_reproduces_file(tmp_path, corpus, weighted):
    dimension, docs, _ = corpus
    idx = build_index(dimension, docs)
    if weighted:
        idx = apply_idf(idx)
    first, second = tmp_path / "first.hmpi", tmp_path / "second.hmpi"
    save_index(idx, first)
    save_index(load_index(first), second)
    assert second.read_bytes() == first.read_bytes()
