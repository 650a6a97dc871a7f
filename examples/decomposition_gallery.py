"""Gallery: recompute and render every decomposition figure of the paper.

Run with::

    python examples/decomposition_gallery.py

Figures 1–8 of the paper, regenerated by the library's own algorithms
(GYO join trees, exact query-width search, det-k-decomp, and the Lemma
4.6 transformation as the plan compiler builds it) rather than
transcribed.
"""

from repro.core.acyclicity import join_tree
from repro.core.detkdecomp import hypertree_width
from repro.core.qwsearch import query_width
from repro.core.jointree import join_tree_from_edges
from repro.db.yannakakis import RunContext, bag_program, run_program
from repro.engine.plan import literal_plan, literal_size
from repro.generators.paper_queries import q1, q2, q3, q4, q5
from repro.generators.workloads import random_database


def banner(text: str) -> None:
    print(f"\n{'=' * 66}\n{text}\n{'=' * 66}")


def main() -> None:
    banner("Fig. 1 — join tree of Q2 (acyclic)")
    print(join_tree(q2()).render())

    banner("Fig. 2 — width-2 query decomposition of Q1 (cyclic)")
    width, qd = query_width(q1())
    print(f"qw(Q1) = {width}")
    print(qd.render())

    banner("Fig. 3 — join tree of Q3")
    print(join_tree(q3()).render())

    banner("Fig. 4 — pure width-2 query decomposition of Q4")
    width, qd = query_width(q4())
    print(f"qw(Q4) = {width}")
    print(qd.render())

    banner("Fig. 5 — width-3 query decomposition of Q5 (and qw(Q5) = 3)")
    width, qd = query_width(q5())
    print(f"qw(Q5) = {width}  (no width-2 decomposition exists, §3.3)")
    print(qd.render())

    banner("Fig. 6 — width-2 hypertree decompositions (hw beats qw on Q5)")
    for query in (q1(), q5()):
        w, hd = hypertree_width(query)
        print(f"hw({query.name}) = {w}")
        print(hd.render())
        print()

    banner("Fig. 7 — atom representation of HD5")
    _, hd5 = hypertree_width(q5())
    print(hd5.render_atoms())

    banner("Fig. 8 — join tree JT5 of the Lemma 4.6 query Q5'")
    db = random_database(q5(), domain_size=3, tuples_per_relation=6, seed=0)
    plan = literal_plan(q5(), hd5)
    bags = run_program(bag_program(plan.bags), {}, context=RunContext(db))
    # The plan roots JT where its estimates say; the figure draws it as
    # HD5 is drawn, from n0 (bag i is node i of the completed HD5).
    nodes = plan.decomposition.nodes
    atom = {id(p): bag.node for p, bag in zip(nodes, plan.bags)}
    jt = join_tree_from_edges(
        list(atom.values()),
        [(atom[id(p)], atom[id(c)]) for p in nodes for c in p.children],
    )
    print(jt.render())
    print(f"(each nᵢ is the join of its λ relations projected onto χ; "
          f"‖⟨Q′,DB′,JT⟩‖ = {literal_size(plan, bags)})")


if __name__ == "__main__":
    main()
