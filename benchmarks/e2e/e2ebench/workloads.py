"""The six workloads: inputs, the call that is timed, and the oracle.

Every workload is a closed loop over *rounds*: one round is a fixed,
seed-determined sequence of ops (round-robin over the workload's query
shapes), and a run repeats the round until its time is up.  Repeating an
identical round keeps a time-boxed run stationary — a faster program does
more rounds of the same work, not different work.

A workload object is built from a seed and a size table (generation),
then ``boot()``-ed (load, engine/server start, one warm-up op per distinct
query); the harness times the two together as set-up.  ``call`` is the
only thing inside an op's latency; ``observe`` (digest + counters) runs
after the clock stops.  The program only ever sees generated inputs —
never the seed or the workload's name.

Sizes are part of the workload definitions: ``FULL`` is frozen (the
recorded numbers in README.md were taken with it), ``SMOKE`` exists for
the tier-1 smoke test only.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

from repro.core.parser import parse_query
from repro.core.query import ConjunctiveQuery
from repro.db.database import Database
from repro.db.naive import naive_join_eval
from repro.db.semiring import resolve_semiring
from repro.engine.executor import Engine
from repro.engine.fingerprint import fingerprint
from repro.generators import paper_queries
from repro.generators.families import (
    book_query,
    clique_query,
    cycle_query,
    grid_query,
    hyperwheel_query,
    random_query,
)
from repro.generators.workloads import (
    random_database,
    renamed_variant,
    update_workload,
)
from repro.heuristics.validate import check_decomposition
from repro.obs import get_registry
from repro.serve import ServeClient, protocol, serve_in_thread

from .staged import staged_execute

FULL = {
    "acyclic_large": {"rows": 4000, "reps": 1},
    "cyclic_bags": {
        "rows": {"cycle4": 245, "cycle5": 160, "book2": 215}, "reps": 2,
    },
    "plan_cold": {"domain": 64, "tuples": 8, "shapes": None},
    "semiring_count": {"rows": 3000, "reps": 1},
    "serve_small": {"rows": 120, "variants": 30},
    "live_updates": {
        "rows": 2000, "batches": 40, "batch_size": 64, "worlds": 6,
    },
}

SMOKE = {
    "acyclic_large": {"rows": 300, "reps": 1},
    "cyclic_bags": {
        "rows": {"cycle4": 24, "cycle5": 20, "book2": 22}, "reps": 1,
    },
    "plan_cold": {"domain": 64, "tuples": 8, "shapes": 6},
    "semiring_count": {"rows": 200, "reps": 1},
    "serve_small": {"rows": 60, "variants": 9},
    "live_updates": {"rows": 120, "batches": 8, "batch_size": 8, "worlds": 2},
}


class Op(NamedTuple):
    key: str  # names the expected digest
    shape: str  # groups latencies for the per-shape medians
    payload: object


def digest(rows, annotations=None) -> tuple[int, int]:
    """Row count + an order-free hash of the rows (and their annotations):
    what a sorted-row hash would pin down, without the sort."""
    if annotations is not None:
        rows = [(row, annotations[row]) for row in rows]
    return len(rows), sum(hash(tuple(r)) for r in rows) & (2**64 - 1)


def random_relations(rng, predicates, rows, domain) -> dict[str, list[tuple]]:
    """Uniform binary relations (duplicate draws collapse).  The i-th one
    gets ``rows * (1 + i/16)`` draws: with equal sizes the planner's
    estimate-driven choices (join order, root) are ties that flip with
    the seed, and latency with them."""
    return {
        p: [
            (rng.randrange(domain), rng.randrange(domain))
            for _ in range(rows + i * rows // 16)
        ]
        for i, p in enumerate(predicates)
    }


def load(relations) -> tuple[Database, float]:
    """A database holding *relations*, and the ``add_fact`` rate (1/s)."""
    db = Database()
    facts = 0
    started = time.perf_counter()
    for predicate, rows in relations.items():
        for row in rows:
            db.add_fact(predicate, *row)
        facts += len(rows)
    return db, facts / max(time.perf_counter() - started, 1e-9)


def tally_result(counts, result) -> None:
    """Fold one ``EvalResult`` into the exact-count window."""
    stats = result.stats
    counts["heuristics.width_sum"] += result.width
    counts["db.stats.semijoins"] += stats.semijoins
    counts["db.stats.joins"] += stats.joins
    counts["db.stats.projections"] += stats.projections
    counts["db.stats.tuples_produced"] += stats.total_tuples_produced
    counts["db.stats.max_intermediate"] = max(
        counts["db.stats.max_intermediate"], stats.max_intermediate
    )


def brute_force_counts(query, db) -> dict[tuple, int]:
    """Bag semantics the slow way: materialise every satisfying
    substitution, then count how many project onto each head row."""
    names = sorted(v.name for v in query.variables)
    full = naive_join_eval(
        query.with_head(tuple(sorted(query.variables, key=lambda v: v.name))),
        db,
    )
    head = [t.name for t in query.head_terms]
    positions = [names.index(n) for n in dict.fromkeys(head)]
    return dict(Counter(tuple(row[i] for i in positions) for row in full.rows))


class Workload:
    """What the harness drives; see the module docstring."""

    name = ""
    clients = 1

    def __init__(self, seed: int, sizes: dict):
        self.rng = random.Random(seed)
        self.sizes = sizes
        self.expected: dict[str, tuple] = {}
        self.problems: list[str] = []  # oracle findings; any = incorrect
        self.load_rate = 0.0
        # Named timings a workload observes outside any span (ms).
        self.samples: dict[str, list[float]] = defaultdict(list)

    def boot(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """The set-up oracle: fill ``expected``, append to ``problems``."""
        raise NotImplementedError

    def ops(self, client: int) -> list[Op]:
        raise NotImplementedError

    def begin_round(self, index: int) -> None:
        """Untimed state reset before the phase's *index*-th round (most
        workloads need none)."""

    def call(self, client: int, op: Op):
        raise NotImplementedError

    def staged(self, rec, client: int, seq: int, op: Op):
        """``call`` through the staged driver; same return value."""
        raise NotImplementedError

    def observe(self, client: int, op: Op, raw, counts) -> bool:
        """Check *raw* against the expected digest; with *counts* (the
        first round only) also tally the exact counters."""
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Monotonic program-side counters, read between phases."""
        registry = get_registry()
        return {
            "db.layout.columnar_bags":
                registry.counter("plan.layout_columnar").value,
            "db.layout.row_bags": registry.counter("plan.layout_row").value,
        }

    def close(self) -> None:
        pass


def engine_counters(engine) -> dict[str, float]:
    info = engine.cache.info()
    return {
        "heuristics.decompose_calls": engine.decompositions,
        "cache.hits": info["hits"],
        "cache.misses": info["misses"],
    }


# -- in-process Engine.execute on a warm plan cache ---------------------------

PATH4 = ("path4", "ans() :- r1(A,B), r2(B,C), r3(C,D), r4(D,E).")
PATH3 = ("path3", "ans(W,Z) :- r1(W,X), r2(X,Y), r3(Y,Z).")
STAR3 = ("star3", "ans(X) :- r1(X,A), r2(X,B), r3(X,C).")


class ExecuteWorkload(Workload):
    """Shared driver of ``acyclic_large``, ``cyclic_bags`` and
    ``semiring_count``: a few fixed shapes against one loaded database."""

    semiring = None

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.shapes, self.relations = self.generate()
        self.inputs = self.relations

    def generate(self):
        raise NotImplementedError

    def boot(self):
        self.db, self.load_rate = load(self.relations)
        self.engine = Engine(backend="sequential", layout="auto")
        self.algebra = resolve_semiring(self.semiring)  # None = set semantics
        for query in self.shapes.values():
            self.engine.execute(query, self.db, semiring=self.semiring)

    def verify(self):
        for name, query in self.shapes.items():
            result = self.engine.execute(query, self.db, semiring=self.semiring)
            if self.semiring is None:
                truth = naive_join_eval(query, self.db).rows
                if result.answer.rows != truth:
                    self.problems.append(f"{name}: differs from naive join")
            elif dict(result.annotations) != brute_force_counts(query, self.db):
                self.problems.append(f"{name}: differs from brute-force count")
            self.expected[name] = digest(result.answer.rows, result.annotations)

    def ops(self, client):
        return [
            Op(name, name, query) for name, query in self.shapes.items()
        ] * self.sizes["reps"]

    def call(self, client, op):
        return self.engine.execute(op.payload, self.db, semiring=self.semiring)

    def staged(self, rec, client, seq, op):
        with rec.op(client, seq):
            return staged_execute(
                rec, self.engine, op.payload, self.db, self.algebra
            )

    def observe(self, client, op, raw, counts):
        if counts is not None:
            tally_result(counts, raw)
        return digest(raw.answer.rows, raw.annotations) == self.expected[op.key]

    def counters(self):
        return {**super().counters(), **engine_counters(self.engine)}

    def close(self):
        self.engine.close()


class AcyclicLarge(ExecuteWorkload):
    name = "acyclic_large"

    def generate(self):
        rows = self.sizes["rows"]
        shapes = {n: parse_query(t, name=n) for n, t in (PATH4, PATH3, STAR3)}
        # domain = rows: sparse, so joins neither vanish nor blow up.
        return shapes, random_relations(
            self.rng, ("r1", "r2", "r3", "r4"), rows, rows
        )


class SemiringCount(AcyclicLarge):
    name = "semiring_count"
    semiring = "count"


class CyclicBags(ExecuteWorkload):
    """Width-2 shapes whose decompositions put two atoms that share no
    variable into one λ label: the bag is their cross product."""

    name = "cyclic_bags"

    def generate(self):
        shapes = {
            "cycle4": parse_query(
                "ans(A,C) :- c4a(A,B), c4b(B,C), c4c(C,D), c4d(D,A).",
                name="cycle4",
            ),
            "cycle5": parse_query(
                "ans() :- c5a(A,B), c5b(B,C), c5c(C,D), c5d(D,E), c5e(E,A).",
                name="cycle5",
            ),
            "book2": book_query(2),
        }
        relations = {}
        # Each shape owns its relations, sized so the three per-shape
        # medians stay within 2x of each other (cycle5 has two such bags).
        for name, query in shapes.items():
            rows = self.sizes["rows"][name]
            relations.update(
                random_relations(
                    self.rng, sorted(query.predicates), rows, max(2, rows // 2)
                )
            )
        return shapes, relations


# -- cold planning: every op a cache miss -------------------------------------

def cold_shapes(limit):
    """~40 fixed shapes.  The structure is seed-independent (so p50/p90
    compare across seeds); the seed picks each one's renaming and data."""
    shapes = [cycle_query(n) for n in range(4, 17)]
    shapes += [clique_query(4), clique_query(5), grid_query(3)]
    shapes += [hyperwheel_query(n, a) for n, a in ((4, 3), (5, 4), (6, 4), (8, 3))]
    shapes += [book_query(pages) for pages in (2, 3, 4, 5)]
    shapes += [getattr(paper_queries, f"q{i}")() for i in range(1, 6)]
    shapes += [paper_queries.qn(3), paper_queries.qn(5)]
    shapes += [
        random_query(n_atoms, n_atoms // 2 + 3 + i % 3, seed=101 + i)
        for i, n_atoms in enumerate((6, 7, 8, 9, 10, 11, 12, 13, 14, 10))
    ]
    return shapes[:limit] if limit else shapes


def connected(query):
    """*query* with its body reordered so that each atom shares variables
    with the ones before it: renaming shuffles bodies, and the left-deep
    naive join of a shuffled cycle is a chain of cross products."""
    todo = list(query.atoms)
    body = [todo.pop(0)]
    seen = set(body[0].variables)
    while todo:
        following = max(todo, key=lambda atom: len(atom.variables & seen))
        todo.remove(following)
        body.append(following)
        seen |= following.variables
    return ConjunctiveQuery(tuple(body), query.head_terms, query.name)


class PlanCold(Workload):
    name = "plan_cold"

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.items = []
        facts = 0
        started = time.perf_counter()
        for i, base in enumerate(cold_shapes(sizes["shapes"])):
            variant = renamed_variant(base, seed=self.rng.randrange(2**31))
            if i % 2:
                head = sorted(variant.variables, key=lambda v: v.name)[:2]
                variant = variant.with_head(tuple(head))
            db = random_database(
                variant, sizes["domain"], sizes["tuples"],
                seed=self.rng.randrange(2**31), plant_answer=True,
            )
            facts += db.tuple_count()
            self.items.append(Op(base.name, base.name, (str(variant), db)))
        self.load_rate = facts / max(time.perf_counter() - started, 1e-9)
        self.inputs = [op.payload[0] for op in self.items]
        self.engine = None
        self.retired = Counter()

    def boot(self):
        # Nothing to warm: the point is that nothing is.  One throw-away
        # op pays the program's lazy imports.
        self.begin_round(0)
        self.call(0, self.items[0])

    def verify(self):
        prints = set()
        for op in self.items:
            text, db = op.payload
            query = parse_query(text, name=op.key)
            prints.add(fingerprint(query))
            with Engine() as engine:
                result = engine.execute(query, db)
                hd = engine.cache.lookup(query).decomposition
            if check_decomposition(hd):
                self.problems.append(f"{op.key}: invalid decomposition")
            if result.answer.rows != naive_join_eval(connected(query), db).rows:
                self.problems.append(f"{op.key}: differs from naive join")
            self.expected[op.key] = digest(result.answer.rows)
        if len(prints) != len(self.items):
            self.problems.append("two shapes share a fingerprint: not all misses")

    def ops(self, client):
        return self.items

    def begin_round(self, index):
        """A new Engine per pass, so every op of the pass misses."""
        if self.engine is not None:
            self.retired.update(engine_counters(self.engine))
            self.engine.close()
        self.engine = Engine()

    def call(self, client, op):
        text, db = op.payload
        return self.engine.execute(parse_query(text, name=op.key), db)

    def staged(self, rec, client, seq, op):
        text, db = op.payload
        with rec.op(client, seq):
            with rec.span("core.parser"):
                query = parse_query(text, name=op.key)
            return staged_execute(rec, self.engine, query, db)

    def observe(self, client, op, raw, counts):
        if counts is not None:
            tally_result(counts, raw)
        return digest(raw.answer.rows) == self.expected[op.key]

    def counters(self):
        merged = {
            key: value + self.retired[key]
            for key, value in engine_counters(self.engine).items()
        }
        return {**super().counters(), **merged}

    def close(self):
        self.engine.close()


# -- over the wire ------------------------------------------------------------

TRIANGLE = ("triangle", "ans() :- r1(A,B), r2(B,C), r3(C,A).")


class ServeSmall(Workload):
    """Two closed-loop ``ServeClient`` connections (= nproc on the box
    the sizes were frozen on), one thread and one tenant each."""

    name = "serve_small"
    clients = 2

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        rows = sizes["rows"]
        self.relations = random_relations(self.rng, ("r1", "r2", "r3"), rows, rows)
        self.shapes = {
            n: parse_query(t, name=n) for n, t in (PATH3, STAR3, TRIANGLE)
        }
        names = list(self.shapes)
        # Renamed-isomorphic variants (same predicates, fresh variable
        # names and atom order): plan-cache hits by transport.
        self.requests = [
            [
                Op(
                    names[i % 3], names[i % 3],
                    str(renamed_variant(
                        self.shapes[names[i % 3]],
                        seed=self.rng.randrange(2**31),
                        rename_predicates=False,
                    )),
                )
                for i in range(sizes["variants"])
            ]
            for _ in range(self.clients)
        ]
        self.inputs = (self.relations, [[o.payload for o in r] for r in self.requests])

    def boot(self):
        self.db, self.load_rate = load(self.relations)
        self.server = serve_in_thread(seed_db=self.db)
        self.conns = [
            ServeClient(self.server.host, self.server.port, tenant=f"tenant{i}")
            for i in range(self.clients)
        ]
        self.control = ServeClient(self.server.host, self.server.port)
        for conn, requests in zip(self.conns, self.requests):
            for op in requests[:3]:
                conn.query(op.payload)
        # The traced run replays the engine stages in-process, against
        # its own engine, because the server's run on other threads.
        self.replay_engine = Engine()
        for query in self.shapes.values():
            self.replay_engine.execute(query, self.db)
        # staged_execute installs the process-global tracer: one at a time.
        self.replay_lock = threading.Lock()

    def verify(self):
        for name, query in self.shapes.items():
            truth = naive_join_eval(query, self.db)
            self.expected[name] = digest(truth.rows) + (bool(truth),)
        for op in self.requests[0][:3]:
            if not self.observe(0, op, self.call(0, op), None):
                self.problems.append(f"{op.key}: differs from naive join")

    def ops(self, client):
        return self.requests[client]

    def call(self, client, op):
        return self.conns[client].query(op.payload)

    def staged(self, rec, client, seq, op):
        # The root span is the real round trip; the replayed stages are
        # recorded beside it (same op id), not inside it.
        with rec.op(client, seq):
            response = self.conns[client].query(op.payload)
        line = protocol.encode(protocol.request("query", seq, q=op.payload))
        with self.replay_lock:
            with rec.span("serve.protocol.decode"):
                protocol.decode_request(line)
            with rec.span("core.parser"):
                query = parse_query(op.payload)
            staged_execute(rec, self.replay_engine, query, self.db)
            with rec.span("serve.protocol.encode"):
                protocol.encode(protocol.ok_response(seq, response))
        return response

    def observe(self, client, op, raw, counts):
        self.samples["serve.server.engine_ms"].append(raw["elapsed_ms"])
        if counts is not None:
            counts["heuristics.width_sum"] += raw["width"]
            # elapsed_ms is the one field whose digits vary run to run.
            sized = protocol.ok_response(0, {**raw, "elapsed_ms": 0})
            counts["serve.protocol.response_bytes"] += len(protocol.encode(sized))
        got = digest([tuple(r) for r in raw["rows"]]) + (raw["boolean"],)
        return got == self.expected[op.key]

    def counters(self):
        stats = self.control.stats()
        admission = stats["admission"]
        return {
            **super().counters(),
            "heuristics.decompose_calls": stats["decompositions"],
            "cache.hits": stats["plan_cache"]["hits"],
            "cache.misses": stats["plan_cache"]["misses"],
            "serve.admission.shed":
                admission["shed_queue_full"] + admission["shed_timeout"],
            "serve.admission.max_queued": admission["max_queued"],
        }

    def close(self):
        for conn in (*self.conns, self.control):
            conn.close()
        self.server.stop()
        self.replay_engine.close()


# -- writes beside reads ------------------------------------------------------

class LiveUpdates(Workload):
    """Four registered views under an update stream, every fifth op a
    read.  A stream grows its database, so a round always starts from a
    fresh copy of an initial state.  Rounds cycle through a few *worlds*
    (initial relations + stream): how costly a stream's batches are
    depends on which values its skew makes hot, and the median over one
    world's 40 batches moved by 20 % from seed to seed."""

    name = "live_updates"

    VIEWS = (
        ("path3", "ans(W) :- r1(W,X), r2(X,Y), r3(Y,Z)."),
        STAR3,
        ("triangle", "ans(A) :- r1(A,B), r2(B,C), r3(C,A)."),
        PATH4,
    )

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        rows = sizes["rows"]
        self.queries = [parse_query(t, name=n) for n, t in self.VIEWS]
        self.worlds = []
        for _ in range(sizes["worlds"]):
            relations = random_relations(
                self.rng, ("r1", "r2", "r3", "r4"), rows, rows
            )
            batches = update_workload(
                load(relations)[0], sizes["batches"],
                batch_size=sizes["batch_size"], delete_ratio=0.3, skew=0.5,
                seed=self.rng.randrange(2**31),
            )
            self.worlds.append((relations, batches))
        self.inputs = [(r, [b.changes for b in bs]) for r, bs in self.worlds]
        self.live = None

    def boot(self):
        # One planning engine for the run: later rounds register their
        # views by plan-cache hit, as a long-lived service would.
        self.engine = Engine()
        self.begin_round(0)
        for query in self.queries:
            self.engine.execute(query, self.db)

    def begin_round(self, index):
        if self.live is not None:
            self.end_round()
        self.world = index % len(self.worlds)
        self.db, self.load_rate = load(self.worlds[self.world][0])
        self.live = self.engine.live(self.db)
        self.handles = []
        for query in self.queries:
            started = time.perf_counter()
            self.handles.append(self.live.register(query))
            self.samples["incremental.live.register_ms"].append(
                (time.perf_counter() - started) * 1e3
            )

    def check_views(self, when):
        for handle in self.handles:
            if handle.answers().rows != naive_join_eval(handle.query, self.db).rows:
                self.problems.append(
                    f"{handle.query.name}: view differs from naive join, {when}"
                )

    def verify(self):
        self.check_views("after registration")

    def ops(self, client):
        """Expected digests are learnt in the first round and must repeat
        in every later one (reads are also checked against the view)."""
        batches = self.worlds[self.world][1]
        ops, applied = [], 0
        while applied < len(batches):
            key = f"world{self.world}.op{len(ops)}"
            if len(ops) % 5 == 4:
                view = (len(ops) // 5) % len(self.queries)
                ops.append(Op(key, "read", view))
            else:
                ops.append(Op(key, "apply", batches[applied]))
                applied += 1
        return ops

    def call(self, client, op):
        if op.shape == "apply":
            return self.live.apply(op.payload)
        return self.engine.execute(self.handles[op.payload].query, self.db)

    def staged(self, rec, client, seq, op):
        with rec.op(client, seq):
            if op.shape == "apply":
                with rec.span("incremental.live.apply"):
                    return self.live.apply(op.payload)
            with rec.span("incremental.live.read"):
                return staged_execute(
                    rec, self.engine, self.handles[op.payload].query, self.db
                )

    def observe(self, client, op, raw, counts):
        if op.shape == "apply":
            if counts is not None:
                for view_id, delta in raw.items():
                    notes = self.handles[view_id].last_batch.notes
                    counts["incremental.view.touched_rows"] += int(
                        notes["touched_rows"]
                    )
                    counts["incremental.view.answer_delta_rows"] += len(delta)
            got = digest([
                (view_id, sign, row)
                for view_id, delta in raw.items()
                for sign, rows in ((1, delta.inserted), (-1, delta.deleted))
                for row in rows
            ])
        else:
            if counts is not None:
                tally_result(counts, raw)
            got = digest(raw.answer.rows)
            if got != digest(self.handles[op.payload].answers().rows):
                return False
        return got == self.expected.setdefault(op.key, got)

    def counters(self):
        return {**super().counters(), **engine_counters(self.engine)}

    def end_round(self):
        self.check_views("end of round")
        self.live.close()

    def close(self):
        self.end_round()
        self.engine.close()


WORKLOADS = {
    cls.name: cls
    for cls in (
        AcyclicLarge, CyclicBags, PlanCold, SemiringCount, ServeSmall,
        LiveUpdates,
    )
}

WHY = {
    "acyclic_large":
        "warm 5k-row acyclic requests: bag materialisation, per-request "
        "compile estimates and columnar sweeps do the work; parser and "
        "decomposition do none",
    "cyclic_bags":
        "width-2 cyclic shapes on tiny data: the n^k cross-product bag of "
        "Lemma 4.6 dominates, sweeps are small",
    "plan_cold":
        "~40 distinct shapes on 8-tuple relations, fresh plan cache per "
        "pass: parse, fingerprint, portfolio search and compile do the "
        "work, execution none",
    "semiring_count":
        "acyclic_large's shapes under the count semiring: annotated row "
        "carriers, never columnar, on the same sweeps layer",
    "serve_small":
        "2 closed-loop clients over TCP on a 200-row database: protocol, "
        "admission and the socket outweigh the 1-2 ms of engine work",
    "live_updates":
        "4 live views under 64-change batches with every 5th op a read: "
        "p50 is view maintenance, p90 the read-after-write path",
}
