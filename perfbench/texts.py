"""Seeded inputs: the served OQL texts, the analytic template stream, and
the mutation batches.  The dataset, the shares and the popularity are
fixed; the seed drives only the draws, so runs on different seeds measure
the same mix over the same data.
"""

from __future__ import annotations

import random

#: ``university_scaled`` seed of every workload's dataset.
DATASET_SEED = 0
#: Dataset scales (``university_scaled`` students; courses = students/25).
SERVE_STUDENTS = 1000
ANALYTIC_STUDENTS = 2000
WRITE_STUDENTS = 500

# No traffic is recorded for this engine, so the shares below are
# assumptions, not measurements.

#: Zipf exponent of the served texts' popularity (assumed).
ZIPF_S = 1.0
#: write_mix: share of requests that are durable ``mutate`` batches.
WRITE_SHARE = 0.20
#: Batch kinds within the writes: grade update, section move, insert
#: (assumed).
BATCH_SHARES = (("grades", 0.6), ("move", 0.3), ("insert", 0.1))


def courses_for(n_students: int) -> int:
    return n_students // 25


def serve_texts(n_students: int) -> list[tuple[str, float]]:
    """The served set with its popularity weights.

    The texts are the paper's Queries 1-5 in the paper's order, with
    constants scaled to the dataset, followed by the σ, A-Complement and
    NonAssociate one-liners in that order.  Popularity is Zipf with
    exponent :data:`ZIPF_S` over that fixed order (rank 1 = Query 1); no
    traffic is recorded for this engine, so the order and the exponent are
    assumptions, fixed by this rule rather than by any measurement.
    """
    c = 1000 + courses_for(n_students) // 4
    texts = [
        # Query 1: the TAs' SS#s.
        "pi(TA * Grad * Student * Person * SS#)[SS#]",
        # Query 2: the heterogeneous OR query of the CIS department.
        "pi(sigma(Name)[Name = 'CIS'] * Department * Course *"
        " (Section * Teacher * Faculty * Specialty"
        " + Section * (Student * GPA & Student * EarnedCredit)))"
        "[Section, Specialty, GPA, EarnedCredit;"
        " Section:Specialty, Section:GPA, Section:EarnedCredit]",
        # Query 3: students teaching in their major department.
        "pi(Student * Person * Name & Student * Department"
        " & Student * Grad * TA * Teacher * Department)[Name]",
        # Query 4: sections without a room or without a teacher.
        "pi(Section# * (Section ! Room# + Section ! Teacher))[Section#]",
        # Query 5: students taking both of two courses (A-Divide).
        "pi((Name * Person * Student * Enrollment * Course * Course#)"
        f" /{{Student}} sigma(Course#)[Course# = {c} or Course# = {c + 5}])[Name]",
        "sigma(Student * GPA)[GPA >= 3.9]",
        f"sigma(Course#)[Course# = {c}] * Course | Section",
        "Teacher ! Section",
    ]
    return [(text, (rank + 1) ** -ZIPF_S) for rank, text in enumerate(texts)]


class Deck:
    """Stratified seeded draws.

    Every deck of ``size`` cards holds each item in proportion to its
    weight (largest remainder), shuffled by ``rng``: shares are exact per
    deck and the seed only orders the cards, so runs on different seeds
    see the same mix.
    """

    def __init__(self, weights: dict, size: int, rng: random.Random) -> None:
        total = sum(weights.values())
        exact = {item: w * size / total for item, w in weights.items()}
        counts = {item: int(v) for item, v in exact.items()}
        short = size - sum(counts.values())
        for item in sorted(exact, key=lambda i: counts[i] - exact[i])[:short]:
            counts[item] += 1
        self.cards = [item for item, n in counts.items() for _ in range(n)]
        self.rng = rng
        self._left: list = []

    def next(self):
        if not self._left:
            self._left = list(self.cards)
            self.rng.shuffle(self._left)
        return self._left.pop()


def serve_deck(n_students: int, rng: random.Random) -> Deck:
    """Draws from :func:`serve_texts` by popularity, 100 cards a deck."""
    return Deck(dict(serve_texts(n_students)), 100, rng)


# ----------------------------------------------------------------------
# analytic_cold: one template per A-algebra operator
# ----------------------------------------------------------------------


# Each template's constants span at least 20 000 distinct texts, so a run
# of any length the benchmark allows (or a much faster engine) stays far
# from exhausting it.  GPA bounds are drawn at 1e-4 / 1e-5 resolution for
# that reason.


def _associate(r: random.Random, n: int) -> str:
    lo = 20000 + r.randrange(n - 30)
    return (
        f"sigma(SS#)[SS# >= {lo} and SS# < {lo + r.randrange(10, 30)}]"
        " * Person * Student * Enrollment * Course"
    )


def _complement(r: random.Random, n: int) -> str:
    a = 10000 + r.randrange(courses_for(n) * 10 - 10)
    return (
        f"sigma(Section#)[Section# >= {a} and Section# <= {a + r.randrange(1, 30)}]"
        " * Section | Teacher"
    )


def _select(r: random.Random, n: int) -> str:
    a = 2.0 + r.randrange(1900) / 1000
    return (
        f"sigma(Student * GPA)[GPA >= {a:.3f} and GPA < "
        f"{a + r.randrange(50, 150) / 1000:.3f}]"
    )


def _project(r: random.Random, n: int) -> str:
    a = 2.0 + r.randrange(18600) / 10000
    return (
        f"pi(sigma(GPA)[GPA >= {a:.4f} and GPA < "
        f"{a + r.randrange(20, 140) / 1000:.4f}] * Student * Section)[Section]"
    )


def _nonassociate(r: random.Random, n: int) -> str:
    lo = 20000 + r.randrange(n - 15)
    return (
        f"sigma(SS#)[SS# >= {lo} and SS# < {lo + r.randrange(3, 15)}]"
        " * Person * Student ! Section"
    )


def _intersect(r: random.Random, n: int) -> str:
    lo = 20000 + r.randrange(n - 60)
    return (
        f"sigma(SS#)[SS# >= {lo} and SS# < {lo + r.randrange(20, 60)}]"
        " * Person * Student & Student * Department"
    )


def _union(r: random.Random, n: int) -> str:
    return (
        f"sigma(Student * GPA)[GPA < {2.0 + r.randrange(30000) / 100000:.5f}]"
        f" + sigma(Student * EarnedCredit)[EarnedCredit > {r.randrange(100, 119)}]"
    )


def _difference(r: random.Random, n: int) -> str:
    return (
        "Student * GPA - sigma(Student * GPA)"
        f"[GPA >= {2.05 + r.randrange(60000) / 100000:.5f}]"
    )


def _divide(r: random.Random, n: int) -> str:
    courses = sorted(r.sample(range(1000, 1000 + courses_for(n)), r.choice((2, 3))))
    divisor = " or ".join(f"Course# = {c}" for c in courses)
    return (
        "pi((SS# * Person * Student * Enrollment * Course * Course#) /{Student}"
        f" sigma(Course#)[{divisor}])[SS#]"
    )


#: Operator → template; every template's parameter-free operand recurs.
TEMPLATES = {
    "Associate": _associate,
    "A-Complement": _complement,
    "A-Select": _select,
    "A-Project": _project,
    "NonAssociate": _nonassociate,
    "A-Intersect": _intersect,
    "A-Union": _union,
    "A-Difference": _difference,
    "A-Divide": _divide,
}

#: Consecutive repeated draws after which a template counts as exhausted.
MAX_REDRAWS = 10_000


class AnalyticStream:
    """Every template once per nine queries, in seeded order, with seeded
    constants; no text is ever issued twice."""

    def __init__(self, n_students: int, rng: random.Random) -> None:
        self.n = n_students
        self.rng = rng
        self.templates = Deck(dict.fromkeys(TEMPLATES, 1), len(TEMPLATES), rng)
        self.seen: set[str] = set()

    def next(self) -> str:
        name = self.templates.next()
        for _ in range(MAX_REDRAWS):
            text = TEMPLATES[name](self.rng, self.n)
            if text not in self.seen:
                self.seen.add(text)
                return text
        raise RuntimeError(
            f"{name} template exhausted: {MAX_REDRAWS} draws in a row"
            " repeated an issued text"
        )


# ----------------------------------------------------------------------
# mutation batches
# ----------------------------------------------------------------------


class Mutator:
    """Seeded ``mutate`` batches, with the state they should leave behind.

    ``acked`` folds an acknowledged batch into the expected final state;
    :meth:`check` verifies that state against a database.
    """

    def __init__(self, graph, rng: random.Random) -> None:
        from repro.core.identity import IID

        self.rng = rng
        self.kinds = Deck(dict(BATCH_SHARES), 10, rng)
        takes = graph.schema.resolve("Student", "Section")
        self.sections = sorted(graph.extent("Section"))
        self.gpas = sorted(graph.extent("GPA"))
        self.credits = sorted(graph.extent("EarnedCredit"))
        self.students = [
            [student, set(graph.partners(takes, student))]
            for student in sorted(graph.extent("Student"))
        ]
        self.values: dict[IID, float] = {}
        self.edges: dict[tuple, bool] = {}
        self.inserted: list[IID] = []
        self._pending = None

    def next(self) -> list[dict]:
        r = self.rng
        kind = self.kinds.next()
        if kind == "insert":
            self._pending = ("insert", None)
            return [{"action": "insert", "classes": ["Undergrad", "Student", "Person"]}]
        if kind == "grades":
            g, c = r.choice(self.gpas), r.choice(self.credits)
            gv = round(2.0 + r.randrange(201) / 100, 2)
            cv = r.randrange(120)
            self._pending = ("grades", ((g, gv), (c, cv)))
            return [
                {"action": "update", "instance": [g.cls, g.oid], "value": gv},
                {"action": "update", "instance": [c.cls, c.oid], "value": cv},
            ]
        row = r.choice(self.students)
        student, taken = row
        old = r.choice(sorted(taken))
        new = r.choice([s for s in self.sections if s not in taken])
        self._pending = ("move", (row, old, new))
        return [
            {"action": "unlink", "a": [student.cls, student.oid], "b": [old.cls, old.oid]},
            {"action": "link", "a": [student.cls, student.oid], "b": [new.cls, new.oid]},
        ]

    def acked(self, response: dict) -> None:
        """Fold the acknowledged batch into the expected state."""
        from repro.core.identity import IID

        kind, data = self._pending
        if kind == "insert":
            oid = response["results"][0]["created"]["Student"]
            self.inserted.append(IID("Student", oid))
        elif kind == "grades":
            for instance, value in data:
                self.values[instance] = value
        else:
            row, old, new = data
            row[1].discard(old)
            row[1].add(new)
            self.edges[(row[0], old)] = False
            self.edges[(row[0], new)] = True

    def check(self, db) -> list[str]:
        """Acknowledged mutations missing from ``db`` (empty = all visible)."""
        graph = db.graph
        takes = db.schema.resolve("Student", "Section")
        missing = []
        for instance, value in self.values.items():
            if graph.value(instance) != value:
                missing.append(f"{instance} != {value}")
        for (student, section), linked in self.edges.items():
            if graph.are_associated(takes, student, section) != linked:
                missing.append(f"{student}-{section} linked={not linked}")
        for instance in self.inserted:
            if not graph.has_instance(instance):
                missing.append(f"{instance} not inserted")
        return missing
