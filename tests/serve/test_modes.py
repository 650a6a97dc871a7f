"""Semiring evaluation modes on the serve protocol's query envelopes."""

import pytest

from repro._errors import ReproError
from repro.serve import ServeClient, serve_in_thread
from repro.serve.protocol import ProtocolError

PATH2 = "ans(X, Z) :- e(X, Y), e(Y, Z)."
EDGES = [[1, 2], [2, 3], [2, 4], [4, 5], [3, 5]]


@pytest.fixture
def served():
    with serve_in_thread() as st:
        with ServeClient(st.host, st.port, tenant="t1") as client:
            client.declare("e", 2)
            client.load("e", EDGES)
            yield client


class TestQueryModes:
    def test_default_mode_is_set(self, served):
        result = served.query(PATH2)
        assert result["mode"] == "set"
        assert "annotations" not in result and "total" not in result

    def test_count_mode(self, served):
        result = served.query(PATH2, mode="count")
        assert result["mode"] == "count"
        assert result["total"] == 4
        assert [[2, 5], 2] in result["annotations"]
        assert served.count(PATH2) == 4

    def test_top_k_mode(self, served):
        top = served.top_k(PATH2, k=2)
        assert len(top) == 2
        assert top[0]["cost"] <= top[1]["cost"]
        for entry in top:
            assert {"row", "cost", "witness"} <= set(entry)

    def test_provenance_mode(self, served):
        annotations = dict(
            (tuple(row), witness_sets)
            for row, witness_sets in served.provenance(PATH2)
        )
        assert len(annotations[(2, 5)]) == 2

    def test_prob_mode(self, served):
        result = served.query(PATH2, mode="prob")
        assert 0.0 < result["total"] <= 1.0

    def test_query_many_with_mode(self, served):
        result = served.query_many([PATH2, PATH2], mode="count")
        assert result["mode"] == "count"
        assert [item["total"] for item in result["results"]] == [4, 4]

    def test_unknown_mode_is_protocol_error(self, served):
        with pytest.raises((ProtocolError, ReproError)):
            served.query(PATH2, mode="volts")

    def test_top_k_needs_positive_k(self, served):
        with pytest.raises((ProtocolError, ReproError)):
            served.query(PATH2, mode="top_k", k=0)

    def test_query_many_rejects_top_k(self, served):
        with pytest.raises((ProtocolError, ReproError)):
            served.query_many([PATH2], mode="top_k")
