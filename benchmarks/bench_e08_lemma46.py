"""E08 — the Lemma 4.6 transformation ⟨Q′, DB′, JT⟩ (Fig. 8).

Times the transformation on Q5 as the database grows — compiling the
literal plan and running its bags — recording the measured transformed
size against the ``(‖Q‖+‖HD‖)·r^k`` bound.
"""

import pytest

from repro.core.detkdecomp import hypertree_width
from repro.core.query import ConjunctiveQuery
from repro.db.yannakakis import RunContext, bag_program, run_program
from repro.engine.plan import literal_plan, literal_size
from repro.generators.paper_queries import q5
from repro.generators.workloads import random_database


@pytest.mark.parametrize("tuples", [16, 32, 64, 128])
def test_lemma46_transform_q5(benchmark, tuples):
    q = q5()
    width, hd = hypertree_width(q)
    db = random_database(q, domain_size=8, tuples_per_relation=tuples, seed=1)

    def transform():
        plan = literal_plan(q, hd)
        bags = run_program(bag_program(plan.bags), {}, context=RunContext(db))
        return literal_size(plan, bags)

    size = benchmark(transform)
    r = db.max_relation_size()
    bound = (len(q.atoms) + len(hd)) * r**width
    assert size <= 40 * bound
    benchmark.extra_info["r"] = r
    benchmark.extra_info["size"] = size
    benchmark.extra_info["bound"] = bound


def test_lemma46_join_tree_valid(benchmark):
    q = q5()
    _, hd = hypertree_width(q)
    plan = literal_plan(q, hd)
    qprime = ConjunctiveQuery(tuple(bag.node for bag in plan.bags))
    violations = benchmark(plan.join_tree.validate, qprime)
    assert violations == []
